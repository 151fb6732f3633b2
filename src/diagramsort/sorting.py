"""Stack-sorting of words and its lift to partition diagrams.

The classical map sends a word w = L n R (n the largest letter) to
sort(L) sort(R) n.  The diagram version repeatedly splits off the
propagating block holding the largest bottom node, sorts what lies to its
left, across it, and to its right, and reassembles the sorted factors with
fresh consecutive top labels while every bottom label stays put.  On
diagrams of permutations it reproduces the word map.

The kernel orders the non-singleton blocks by extent once, as (start,
end, top_mask, bottom_mask) items; each piece of the recursion keeps
that order, so its middle groups form in one pass.  One
:class:`PartitionDiagram` is built per sort; :func:`decompose`,
:func:`odot_assemble` and trace events are mask-list views.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (
    PartitionDiagram,
    _bits,
    _block_key,
    _pad_blocks,
    _signed,
)

__all__ = [
    "sort_word",
    "FactorTag",
    "Decomposition",
    "TraceEvent",
    "decompose",
    "odot_assemble",
    "sort_diagram",
    "sort_diagram_traced",
]

Block = tuple[int, int]
Item = tuple[int, int, int, int]  # see _items
# (chosen, left, middle_groups, right) of one split step, as mask lists.
Split = tuple[Block, list[Block], list[list[Block]], list[Block]]


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


class FactorTag(NamedTuple):
    """Where a block landed in one decomposition step.

    ``kind`` is "L", "M", or "R"; ``group`` is the 1-based middle group
    index and is 0 for the side factors.
    """

    kind: str
    group: int = 0


class Decomposition(NamedTuple):
    """One splitting step around the chosen propagating block.

    ``block`` is the propagating block holding the largest bottom node, as
    a frozenset of signed nodes.  ``left``, ``middles``, and ``right`` are
    diagrams of the original order carrying the blocks that lie strictly
    left of, across, and strictly right of the chosen block (everything
    else padded to singletons); ``padded_block`` carries the chosen block
    alone.
    """

    block: frozenset[int]
    left: PartitionDiagram
    middles: tuple[PartitionDiagram, ...]
    right: PartitionDiagram
    padded_block: PartitionDiagram


class TraceEvent(NamedTuple):
    """Record of one decomposition step during a traced sort.

    ``bottom`` holds the bottom indices of the chosen block.
    ``assignment`` maps every other non-singleton block present at the
    step (as a frozenset of signed nodes) to its factor tag.
    """

    bottom: frozenset[int]
    assignment: Mapping[frozenset[int], FactorTag]


def _is_singleton(block: Block) -> bool:
    t, b = block
    return (t | b).bit_count() == 1 and (t == 0 or b == 0)


def _items(blocks: Iterable[Block], order: int) -> list[Item]:
    """Non-singleton blocks as (start, end, top, bottom), sorted by start.

    [start, end] is the extent in 1' < ... < n' < 1 < ... < n, from 1;
    disjoint blocks never share a start.
    """
    items = []
    for t, b in blocks:
        if t and b or (t | b) & ((t | b) - 1):
            start = (b & -b).bit_length() if b else order + (t & -t).bit_length()
            items.append((start, order + t.bit_length() if t else b.bit_length(), t, b))
    items.sort()
    return items


def _masks(split: tuple) -> Split:
    chosen, left, groups, right = split
    strip = lambda p: [blk[2:] for blk in p]
    return chosen[2:], strip(left), [strip(g) for g in groups], strip(right)


def _split(piece: list[Item], order: int) -> tuple | None:
    """:func:`decompose` on a piece of items sorted by start; None if none propagates.

    Left, right and the middle keep the piece's order, so one pass groups
    the middle: a block starting past every end so far opens a group.
    """
    chosen, best = None, 0
    for blk in piece:
        # Bottom masks are disjoint, so the larger one holds the larger node.
        if blk[3] > best and blk[2]:
            chosen, best = blk, blk[3]
    if chosen is None:
        return None
    t_first, b_first = chosen[2] & -chosen[2], best & -best
    t_upto, b_upto = (1 << chosen[2].bit_length()) - 1, (1 << best.bit_length()) - 1
    left, groups, right = [], [], []
    reach = 0
    for blk in piece:
        start, end, t, b = blk
        if t:
            if t < t_first:
                left.append(blk)
                continue
            if not t & t_upto:
                right.append(blk)
                continue
        elif b < b_first:
            left.append(blk)
            continue
        elif not b & b_upto:
            right.append(blk)
            continue
        if blk is not chosen:
            if start > reach:
                groups.append([blk])
            else:
                groups[-1].append(blk)
            if end > reach:
                reach = end
    return chosen, left, groups, right


def _expand(diagram: PartitionDiagram, steps: list[Split] | None = None) -> list[Block]:
    """Run the split recursion depth first; return the non-singleton blocks in walk order.

    Factors come out as left, middle groups, right, then the chosen block;
    a factor without a propagating block is a leaf.  Pieces keep the
    extent order of :func:`_items`.  The result lists each chosen block as
    it pops and each leaf's blocks in that order (top-only ones by least
    top node).  Empty pieces are skipped.  Splits are appended to
    ``steps`` as mask lists when given.
    """
    out: list[Block] = []
    order = diagram.order
    work: list = [_items(diagram.blocks, order)]
    while work:
        item = work.pop()
        if isinstance(item, tuple):  # a chosen block, never split again
            out.append(item[2:])
            continue
        split = _split(item, order)
        if split is None:
            out += [blk[2:] for blk in item]
            continue
        if steps is not None:
            steps.append(_masks(split))
        chosen, left, groups, right = split
        work += [p for p in (chosen, right, *reversed(groups), left) if p]  # left pops first
    return out


def _assemble(order: int, blocks: list[Block]) -> PartitionDiagram:
    """Fresh consecutive top labels in list order, propagating blocks first; bottoms stay.

    Top-only blocks continue the count past the propagating blocks.  Overlapping
    bottoms and labels past the order are left to the constructor to reject.
    """
    out: list[Block] = []
    # 0-based bit positions of the next fresh labels; top-only ones start past the propagating.
    prop, top = 0, sum(t.bit_count() for t, b in blocks if b)
    for t, b in blocks:
        if t:
            width = t.bit_count()
            if b:
                t, prop = ((1 << width) - 1) << prop, prop + width
            else:
                t, top = ((1 << width) - 1) << top, top + width
        out.append((t, b))
    return PartitionDiagram(order, _pad_blocks(out, order))


def decompose(diagram: PartitionDiagram) -> Decomposition:
    """Split a diagram around the propagating block with the largest bottom node.

    Every other non-singleton block goes left, right, or into a middle
    group: a block with top nodes goes left (right) when they all lie
    strictly left (right) of the chosen block's top nodes, a bottom-only
    block when it lies strictly left (right) of the chosen block's bottom
    nodes, and whatever straddles goes to the middle.
    """
    n = diagram.order
    split = _split(_items(diagram.blocks, n), n)
    if split is None:
        raise ValueError("diagram has no propagating block")
    chosen, left, groups, right = _masks(split)
    pad = lambda blks: PartitionDiagram(n, _pad_blocks(blks, n))
    return Decomposition(_signed(chosen), pad(left), tuple(map(pad, groups)), pad(right), pad([chosen]))


def odot_assemble(factors: Iterable[PartitionDiagram], order: int) -> PartitionDiagram:
    """Relabeling product of factor diagrams.

    Each factor must either be non-propagating or consist of one
    propagating block plus singletons.  The factors' non-singleton blocks,
    in factor order (leftmost block first within a factor), are relabeled
    by the sort's rule (:func:`_assemble`): propagating blocks take
    consecutive top labels from 1, then top-only blocks continue the
    count.  Bottom nodes keep their labels, so the factors' non-singleton
    bottom sets must be pairwise disjoint.  Unused top labels become
    singletons.
    """
    fs = list(factors)
    for f in fs:
        if f.order != order:
            raise ValueError("factor order mismatch")
        p = f.propagation_number()
        if p > 1 or (p == 1 and any(not _is_singleton(b) for b in f.blocks if not (b[0] and b[1]))):
            raise ValueError("factor must be non-propagating or one propagating block plus singletons")
    # canonical block order already lists top-row blocks by least top node
    return _assemble(order, [blk for f in fs for blk in f.blocks if not _is_singleton(blk)])


def _event(split: Split, order: int) -> TraceEvent:
    chosen, left, groups, right = split
    tags = [FactorTag("L"), *(FactorTag("M", j) for j in range(1, len(groups) + 1)), FactorTag("R")]
    assignment = {
        _signed(blk): tag
        for tag, piece in zip(tags, (left, *groups, right))
        for blk in sorted(piece, key=_block_key(order))
    }
    return TraceEvent(bottom=frozenset(_bits(chosen[1])), assignment=assignment)


def sort_diagram(diagram: PartitionDiagram) -> PartitionDiagram:
    """The stack-sorting image of a diagram.

    A diagram without propagating blocks is returned unchanged.  On
    diagrams of permutations this agrees with :func:`sort_word` through
    the permutation embedding.
    """
    if diagram.propagation_number() == 0:
        return diagram
    return _assemble(diagram.order, _expand(diagram))


def sort_diagram_traced(diagram: PartitionDiagram) -> tuple[PartitionDiagram, tuple[TraceEvent, ...]]:
    """Like :func:`sort_diagram`, also returning one event per split step."""
    if diagram.propagation_number() == 0:
        return diagram, ()
    steps: list[Split] = []
    result = _assemble(diagram.order, _expand(diagram, steps))
    return result, tuple(_event(step, diagram.order) for step in steps)
