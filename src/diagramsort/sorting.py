"""Stack-sorting of words and its lift to partition diagrams.

The classical map sends a word w = L n R (n the largest letter) to
sort(L) sort(R) n.  The diagram version repeatedly splits off the
propagating block holding the largest bottom node, sorts what lies to its
left, across it, and to its right, and reassembles the sorted factors with
fresh consecutive top labels while every bottom label stays put.  On
diagrams of permutations it reproduces the word map.

One walk (:func:`_walk`) makes the splits for the sort, its trace,
:func:`decompose` and the structural test (:func:`_structural_failure`),
over the blocks with top nodes in least-top order.  Each piece is swept
into top-overlap clusters with a Cartesian tree over them, keyed by
bottom masks: on a permutation, the tree :func:`sort_word`'s stack
builds.  A split at a one-block cluster is a tree node; only a cluster of
several blocks is scanned.  The plain sort and the structural test try
three closed forms on a fresh piece before they plant it: one whose top
intervals all share a point comes out by one sort by bottom mask; one
whose top intervals are disjoint by one pass through a stack, the word
sort's, which is dropped at the first overlapping interval; and one whose
block with the largest bottom mask overlaps every other block's tops is
split there at once, its other blocks the next piece.  The structural
test counts these splits without making them, and plants a disjoint piece
only when its stack image is out of order.  One :class:`PartitionDiagram`
is built per sort, in one pass over the walk's blocks and the blocks without tops.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import PartitionDiagram, _bits, _pad_blocks

__all__ = [
    "sort_word",
    "Decomposition",
    "TraceEvent",
    "decompose",
    "odot_assemble",
    "sort_diagram",
    "sort_diagram_traced",
]

Block = tuple[int, int]
# A block with top nodes: (least top, largest top, bottom mask, block), tops from 1.
Item = tuple[int, int, int, Block]
Tree = list  # [items], filled in place by _plant
# A split's factor: (tree, root, lo, hi), its items tree[0][lo:hi].  A fresh piece
# is ([items], -1, 0, len(items)) and is planted only when the walk pops it: the
# structural test stops at the first broken step, so most pieces it makes are never
# walked.  Planting each piece when made cost 1.30x on is_sss_theorem over random
# candidates and 1.12x on the sort-large ops (2-core x86, Python 3.11, best of 20).
Piece = tuple


def sort_word(word: Sequence[int]) -> tuple[int, ...]:
    """One pass of stack-sorting on a word of distinct positive letters.

    >>> sort_word((2, 3, 1))
    (2, 1, 3)
    >>> sort_word((5, 4, 3, 2, 1, 6))
    (1, 2, 3, 4, 5, 6)
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError("letters must be distinct")
    if any(x < 1 for x in w):
        raise ValueError("letters must be positive")
    stack: list[int] = []
    out: list[int] = []
    for x in w:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


class Decomposition(NamedTuple):
    """One splitting step around the chosen propagating block.

    ``block`` is the propagating block holding the largest bottom node,
    the input diagram's own ``(top_mask, bottom_mask)`` pair.  ``left``,
    ``middles``, and ``right`` are diagrams of the original order carrying
    the blocks that lie strictly left of, across, and strictly right of
    the chosen block (everything else padded to singletons);
    ``padded_block`` carries the chosen block alone.
    """

    block: Block
    left: PartitionDiagram
    middles: tuple[PartitionDiagram, ...]
    right: PartitionDiagram
    padded_block: PartitionDiagram


class TraceEvent(NamedTuple):
    """One split step of a traced sort, shaped like :class:`Decomposition`.

    ``block`` is the chosen block; ``left``, each of ``middles`` and ``right``
    hold the other non-singleton blocks at the step, one tuple per factor, in
    canonical order.  Each block is an element of the input's ``blocks``.
    """

    block: Block
    left: tuple[Block, ...]
    middles: tuple[tuple[Block, ...], ...]
    right: tuple[Block, ...]


_least_top, _largest_top, _bottom, _block = itemgetter(0), itemgetter(1), itemgetter(2), itemgetter(3)


def _titems(blocks: Iterable[Block]) -> list[Item]:
    """The non-singleton blocks with top nodes, as items, in the given order."""
    items = []
    for blk in blocks:
        t, b = blk
        if t and (b or t & (t - 1)):
            items.append(((t & -t).bit_length(), t.bit_length(), b, blk))
    return items


def _bottom_only(blocks: Iterable[Block]) -> list[Block]:
    return [blk for blk in blocks if not blk[0] and blk[1] & (blk[1] - 1)]


def _plant(tree: Tree) -> int:
    """Fill a fresh tree [items] in place to [items, starts, keys, tops, left, right, sums]; its root.

    The items come by least top.  A cluster is a maximal run of them whose
    [least top, largest top] intervals overlap; ``starts[c]`` is its first
    item, ``keys[c]`` its largest bottom mask (0 if nothing in it
    propagates), ``tops[c]`` the item with that mask.  ``left``/``right``
    are the children in the Cartesian tree with the largest key at the
    root, -1 for none; ties go to the later cluster, so top-only clusters
    hang in sequence order.  Every subtree is a range of clusters, so of
    items.  ``sums`` is for :func:`_broken` to fill.
    """
    starts, keys, tops, reach, key, top, j = [], [], [], 0, 0, 0, 0
    for lo, hi, b, _ in tree[0]:
        if lo > reach:  # a new cluster; record the one before
            starts.append(j)
            keys.append(key)
            tops.append(top)
            key, top = b, j
        elif b > key:
            key, top = b, j
        if hi > reach:
            reach = hi
        j += 1
    keys.append(key)
    tops.append(top)
    del keys[0], tops[0]
    starts.append(j)
    left, right, stack = [-1] * len(keys), [-1] * len(keys), [0]
    for c in range(1, len(keys)):
        key, below = keys[c], -1
        while stack and keys[stack[-1]] <= key:
            below = stack.pop()
        left[c] = below
        if stack:
            right[stack[-1]] = c
        stack.append(c)
    tree += starts, keys, tops, left, right, []
    return stack[0]


def _scan_cluster(items: list[Item], first: int, c: int, end: int) -> tuple[list[Item], list[Item], list[Item]]:
    """Cluster first..end-1 split into items left of, across and right of C = items[c]'s tops.

    Items after C start past its least top, so the right ones are a
    suffix, found by bisection.
    """
    lo, hi = items[c][0], items[c][1]
    left, mid = [], []
    for it in items[first:c]:
        (left if it[1] < lo else mid).append(it)
    r = bisect_right(items, hi, c + 1, end, key=_least_top)
    mid += items[c + 1 : r]
    return left, mid, items[r:end]


def _groups(mid: list[Item]) -> list[Piece]:
    """The middle groups as pieces: components of overlapping extents in 1' < ... < n' < 1 < ... < n.

    Propagating blocks all reach across n' | 1, so they form one group P,
    first, with the top-only blocks chained to their tops; other top-only
    groups follow P.  A middle that all propagates is one group.
    """
    if all(map(_bottom, mid)):
        return [([mid], -1, 0, len(mid))]
    reach = max([it[1] for it in mid if it[2]], default=0)
    groups: list[list[Item]] = [[]]
    for it in mid:
        if it[2] or it[0] <= reach:
            groups[-1].append(it)
        else:
            groups.append([it])
        if it[1] > reach:
            reach = it[1]
    return [([g], -1, 0, len(g)) for g in groups if g]


def _walk(items: list[Item], step: Callable[..., bool] | None = None) -> list[Block] | int:
    """Run the split recursion depth first; the blocks with top nodes in walk order.

    Factors come out as left, middle groups, right, then the chosen block
    C, the root of the piece's tree; a factor with no propagating block is
    a leaf, its blocks by least top.  An item's side depends only on
    whether its top interval overlaps C's, so when C is alone in its
    cluster L and R are its subtrees and nothing is in the middle.  A
    cluster of several items is scanned; what it sends left or right is
    swept again with the subtree beside it.

    The plain sort and the structural test (``step`` None or
    :func:`_broken`) try three closed forms on a fresh piece before they
    plant it.  When the top intervals all share a point (Helly's theorem in
    1D: intervals that pairwise overlap do), they are one cluster, and C,
    the item with the largest bottom mask, overlaps every other item, so L
    and R are empty.  The rest is one middle group, since propagating
    blocks always share a group and top-only blocks reach the common point,
    and that group shares the point too.  So the piece comes out as its
    top-only blocks in least-top order, then its propagating blocks by
    ascending bottom mask: one stable sort by bottom mask.  When the first
    two items are disjoint, one pass checks that each item starts past the
    largest top before it.  While that holds, each cluster is one item and
    nothing is in the middle, so the piece comes out in its tree's
    post-order: the keys' stack-sorting image (Knuth, TAOCP 2.2.1), popping
    ties as the tree sends them to the later item.  At the first overlap
    the pass is dropped and the piece is planted.  When the first two items
    overlap, C overlaps every other item iff lo(C) <= mh and hi(C) >= ml,
    mh the least largest top and ml the largest least top (the last
    item's); this holds even when C attains mh or ml itself.  Then L and R
    are empty and C is peeled off: its middle groups are the next pieces,
    one piece when they all propagate.  A peel shortens its piece's list in
    place, ``items`` too.

    The structural test makes none of these splits, it counts them.  Its
    items all propagate, so a piece makes one split per item.  Splits with
    a common point or a peel have one factor each, so none breaks.  A
    stack's output rises iff at every node of its tree the left subtree
    lies below the right one, and interval bottoms compare as their masks
    do, so a piece with disjoint tops is unbroken iff its image's bottoms
    rise.  If they do not, the piece is planted, and its broken step is
    found and numbered split by split.  The trace and :func:`decompose`
    split every piece step by step.

    ``step(chosen, left, groups, right)`` is called on each split in
    pre-order, C an item and the factors pieces or None; if it returns
    true, the walk stops and returns the number of that step.
    """
    out: list[Block] = []
    work: list = [([items], -1, 0, len(items))] if items else []
    steps = 0
    while work:
        entry = work.pop()
        if len(entry) == 2:  # a chosen block: its factors are done
            out.append(entry)
            continue
        tree, i, lo, hi = entry
        titems = tree[0]
        if i < 0:
            if step is None or step is _broken:  # a fresh piece: its closed forms, see above
                ml, h0 = titems[-1][0], titems[0][1]
                if ml <= h0 and ml <= min(map(_largest_top, titems)):  # tops share a point
                    steps += len(titems)
                    if step is None:
                        out += map(_block, sorted(titems, key=_bottom))
                    continue
                if titems[1][0] > h0:  # a disjoint first pair: stack-sort by bottom mask, dropped at an overlap
                    image, stack, reach = [], [(0, 0, float("inf"))], 0  # a key above every mask: never popped
                    for it in titems:
                        if it[0] <= reach:
                            break
                        reach, key = it[1], it[2]
                        while stack[-1][2] <= key:
                            image.append(stack.pop()[3])
                        stack.append(it)
                    else:
                        image += [it[3] for it in stack[:0:-1]]
                        if step is None:
                            out += image
                            continue
                        bottoms = [b for _, b in image]
                        if bottoms == sorted(bottoms):  # unbroken: the image's bottoms rise
                            steps += len(titems)
                            continue
                else:  # the first pair overlaps: peel C off if it overlaps every other item
                    c = max(titems, key=_bottom)
                    if c[2] and c[0] <= h0 and c[1] >= ml and c[0] <= min(map(_largest_top, titems)):
                        steps += 1
                        titems.remove(c)
                        work.append(c[3])
                        work += reversed(_groups(titems))
                        continue
            i = _plant(tree)
        _, starts, keys, tops, lefts, rights, _ = tree
        key = keys[i]
        if not key:
            out += map(_block, titems[lo:hi])
            continue
        s, e, c = starts[i], starts[i + 1], tops[i]
        chosen = titems[c]
        if e - s > 1:
            lpart, mid, rpart = _scan_cluster(titems, s, c, e)
        else:
            lpart = mid = rpart = ()
        if lpart:
            lpart = titems[lo:s] + lpart
            left = ([lpart], -1, 0, len(lpart))
        else:
            left = (tree, lefts[i], lo, s) if lo < s else None
        if rpart:
            rpart += titems[e:hi]
            right = ([rpart], -1, 0, len(rpart))
        else:
            right = (tree, rights[i], e, hi) if e < hi else None
        groups = _groups(mid) if mid else ()
        if step is not None:
            steps += 1
            if step(chosen, left, groups, right):
                return steps
        work.append(chosen[3])
        if right:
            work.append(right)
        if groups:
            work += reversed(groups)
        if left:
            work.append(left)
    return out


def _broken(chosen: Item, left: Piece | None, groups: list[Piece], right: Piece | None) -> bool:
    """Whether a split puts a factor (left, middle groups, right) before one with smaller bottom labels.

    A factor's blocks have disjoint bottom masks, so their union is their
    sum, and a subtree's is a difference of its tree's prefix sums.
    """
    if len(groups) + (left is not None) + (right is not None) < 2:
        return False
    factors = [piece for piece in (left, *groups, right) if piece]
    reach = 0
    for tree, root, lo, hi in factors:
        if root < 0:  # unplanted: tree[0] is the piece's items
            nodes = sum(map(_bottom, tree[0]))
        else:
            sums = tree[6]
            if not sums:
                sums += accumulate(map(_bottom, tree[0]), initial=0)
            nodes = sums[hi] - sums[lo]
        if nodes & -nodes < reach:  # its least bottom lies below the factor before
            return True
        reach = nodes
    return False


def _candidate_items(blocks: Iterable[Block]) -> str | list[Item]:
    """The first block shape no structural candidate has, or else the blocks as walk items.

    A candidate's blocks all propagate, so each is an item, built as
    :func:`_titems` builds them, in the same pass as the shape test.
    """
    items = []
    for blk in blocks:
        t, b = blk
        if not (t and b):
            return "non-propagating block"
        if t.bit_count() != b.bit_count():
            return "unequal top and bottom sizes"
        if (b + (b & -b)) & b:  # adding the low bit clears an interval
            return "non-interval bottom"
        items.append(((t & -t).bit_length(), t.bit_length(), b, blk))
    return items


def _structural_failure(diagram: PartitionDiagram) -> str | None:
    """The structural test: the first condition broken, or None; step k is line k of ``sort --trace``."""
    items = _candidate_items(diagram.blocks)
    if type(items) is str:
        return items
    step = _walk(items, _broken)
    return f"split step {step}: factor order broken" if type(step) is int else None


def _routed(pending: list[list[Block]], chosen: Item, left: Piece | None, groups: Sequence[Piece], right: Piece | None) -> tuple:
    """A split's factors as (L, (M1..Mk), R), block tuples in canonical order, bottom-only blocks placed.

    Bottom-only blocks never change the image: they take no top label, are
    never C, and join or split no group of items, since propagating middle
    blocks share one group and a bottom-only extent ends at or before n.  So
    the walk never sees them; they go here, after each factor's items, as
    :func:`decompose` says.  Middle groups of them precede the propagating
    group P, which takes the last one if it reaches P's least bottom, and
    every block past that.  ``pending`` holds the bottom-only blocks of each
    factor still to split, the next last; the walk splits exactly those with
    a propagating block, in pre-order, so a step pops its own list.
    """
    key = chosen[2]
    first, upto = key & -key, (1 << key.bit_length()) - 1
    lb, mb, rb = [], [], []
    for blk in pending.pop():
        (lb if blk[1] < first else rb if not blk[1] & upto else mb).append(blk)
    litems = left[0][0][left[2] : left[3]] if left else ()
    ritems = right[0][0][right[2] : right[3]] if right else ()
    mids = [[*map(_block, tree[0][lo:hi])] for tree, _, lo, hi in groups]
    start = min([b & -b for _, b in mids[0] if b], default=0) if mids else 0  # P's least bottom
    cut = bisect_right(mb, start, key=lambda blk: blk[1] & -blk[1]) if start else len(mb)
    out, seen = [], 0
    for blk in mb[:cut]:  # a block past every bottom seen opens a group
        if blk[1] & -blk[1] > seen:
            out.append([blk])
        else:
            out[-1].append(blk)
        seen |= blk[1]
    if any(map(_bottom, ritems)):
        pending.append(rb)
    if start:
        joined = out.pop() + mb[cut:] if out and start < seen else mb[cut:]
        pending.append(joined)
        mids[0] += joined
    if any(map(_bottom, litems)):
        pending.append(lb)
    return (*map(_block, litems), *lb), tuple(map(tuple, out + mids)), (*map(_block, ritems), *rb)


def _assemble(order: int, blocks: list[Block]) -> PartitionDiagram:
    """Fresh consecutive top labels in list order, propagating blocks first; bottoms stay.

    Top-only blocks continue the count past the propagating blocks, and the
    top labels left over become singletons.  The caller passes every bottom
    node in some block.  Overlapping bottoms and labels past the order are
    left to the constructor to reject.
    """
    out, widths, label = [], [], 0  # label: the 0-based bit position of the next fresh top label
    for t, b in blocks:
        if not t:
            out.append((t, b))
        elif b:
            width = t.bit_count()
            out.append((((1 << width) - 1) << label, b))
            label += width
        else:
            widths.append(t.bit_count())
    for width in widths:
        out.append((((1 << width) - 1) << label, 0))
        label += width
    out += [(1 << i, 0) for i in range(label, order)]
    return PartitionDiagram(order, out)


def decompose(diagram: PartitionDiagram) -> Decomposition:
    """Split a diagram around the propagating block with the largest bottom node.

    Every other non-singleton block goes left, right, or into a middle
    group: a block with top nodes goes left (right) when they all lie
    strictly left (right) of the chosen block's top nodes, a bottom-only
    block when it lies strictly left (right) of the chosen block's bottom
    nodes, and whatever straddles goes to the middle.
    """
    n = diagram.order
    first: list[tuple] = []
    _walk(_titems(diagram.blocks), lambda *split: first.append(split) or True)  # stop at once
    if not first:
        raise ValueError("diagram has no propagating block")
    chosen, *sides = first[0]
    left, middles, right = _routed([_bottom_only(diagram.blocks)], chosen, *sides)
    pad = lambda blks: PartitionDiagram(n, _pad_blocks(blks, n))
    return Decomposition(chosen[3], pad(left), tuple(map(pad, middles)), pad(right), pad([chosen[3]]))


def odot_assemble(factors: Iterable[PartitionDiagram], order: int) -> PartitionDiagram:
    """Relabeling product of factor diagrams.

    Each factor must either be non-propagating or consist of one
    propagating block plus singletons.  The factors' non-singleton blocks,
    in factor order (leftmost block first within a factor), are relabeled
    by the sort's rule (:func:`_assemble`): propagating blocks take
    consecutive top labels from 1, then top-only blocks continue the
    count.  Bottom nodes keep their labels, so the factors' non-singleton
    bottom sets must be pairwise disjoint.  Unused top labels and the
    bottom nodes no factor's non-singleton block holds become singletons.
    """
    blocks = []
    for f in factors:
        if f.order != order:
            raise ValueError("factor order mismatch")
        items, rest = _titems(f.blocks), _bottom_only(f.blocks)
        if (len(items) > 1 or rest) and any(map(_bottom, items)):
            raise ValueError("factor must be non-propagating or one propagating block plus singletons")
        blocks += [*map(_block, items), *rest]  # canonical order: items by least top, then bottom-only blocks
    covered = 0
    for _, b in blocks:
        covered |= b
    uncovered = ((1 << order) - 1) & ~covered if order >= 0 else 0  # a negative order is the constructor's to name
    return _assemble(order, blocks + [(0, 1 << (i - 1)) for i in _bits(uncovered)])


def _sorted(diagram: PartitionDiagram, step: Callable[..., None] | None) -> PartitionDiagram:
    """The sort's image: the walk's blocks, then the blocks without tops; ``step`` as :func:`_walk` takes it."""
    blocks = diagram.blocks
    items = _titems(blocks)
    if not any(map(_bottom, items)):
        return diagram
    return _assemble(diagram.order, _walk(items, step) + [blk for blk in blocks if not blk[0]])


def sort_diagram(diagram: PartitionDiagram) -> PartitionDiagram:
    """The stack-sorting image of a diagram.

    A diagram without propagating blocks is returned unchanged.  On
    diagrams of permutations this agrees with :func:`sort_word` through
    the permutation embedding.
    """
    return _sorted(diagram, None)


def sort_diagram_traced(diagram: PartitionDiagram) -> tuple[PartitionDiagram, tuple[TraceEvent, ...]]:
    """Like :func:`sort_diagram`, also returning one event per split step."""
    events: list[TraceEvent] = []
    pending = [_bottom_only(diagram.blocks)]
    image = _sorted(diagram, lambda chosen, *sides: events.append(TraceEvent(chosen[3], *_routed(pending, chosen, *sides))))
    return image, tuple(events)
