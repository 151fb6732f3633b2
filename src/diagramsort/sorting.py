"""Stack-sorting of words and its lift to partition diagrams.

The classical map sends a word w = L n R (n the largest letter) to
sort(L) sort(R) n.  The diagram version repeatedly splits off the
propagating block holding the largest bottom node, sorts what lies to its
left, across it, and to its right, and reassembles the sorted factors with
fresh consecutive top labels while every bottom label stays put.  On
diagrams of permutations it reproduces the word map.

The kernel keeps its state as lists of non-singleton (top_mask,
bottom_mask) pairs and builds one :class:`PartitionDiagram` per sort;
:func:`decompose`, :func:`odot_assemble` and trace events are views.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Decomposition:
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


@dataclass(frozen=True)
class TraceEvent:
    """Record of one decomposition step during a traced sort.

    ``bottom`` holds the bottom indices of the chosen block.
    ``assignment`` maps every other non-singleton block present at the
    step (as a frozenset of signed nodes) to its factor tag.
    """

    bottom: frozenset[int]
    assignment: Mapping[frozenset[int], FactorTag]


def _is_singleton(block: tuple[int, int]) -> bool:
    t, b = block
    return (t | b).bit_count() == 1 and (t == 0 or b == 0)


def _non_singletons(diagram: PartitionDiagram) -> list[Block]:
    return [blk for blk in diagram.blocks if not _is_singleton(blk)]


def _group_middle(blocks: list[tuple[int, int]], order: int) -> list[list[tuple[int, int]]]:
    """Group straddling blocks whose extents intersect; order groups by least node.

    The extent of a block is the interval its nodes span in the order
    1' < 2' < ... < n' < 1 < 2 < ... < n.  Blocks are related when extents
    intersect, and groups are the connected components of that relation.
    """
    if len(blocks) < 2:
        return [blocks] if blocks else []
    items = []
    for blk in blocks:
        t, b = blk
        lo = (b & -b).bit_length() if b else order + (t & -t).bit_length()
        hi = order + t.bit_length() if t else b.bit_length()
        items.append((lo, hi, blk))
    items.sort(key=lambda x: x[0])  # disjoint blocks: least nodes never tie
    groups: list[list[tuple[int, int]]] = []
    reach = -1
    for lo, hi, blk in items:
        if not groups or lo > reach:
            groups.append([])
            reach = hi
        else:
            reach = max(reach, hi)
        groups[-1].append(blk)
    return groups


def _split(blocks: list[Block], order: int) -> Split | None:
    """:func:`decompose` on non-singleton blocks, as mask lists; None if none propagates.

    Left and right keep the input's block order.
    """
    chosen = None
    for blk in blocks:
        # Bottom masks are disjoint, so the larger one holds the larger node.
        if blk[0] and blk[1] and (chosen is None or blk[1] > chosen[1]):
            chosen = blk
    if chosen is None:
        return None
    t_first, b_first = chosen[0] & -chosen[0], chosen[1] & -chosen[1]
    t_upto, b_upto = (1 << chosen[0].bit_length()) - 1, (1 << chosen[1].bit_length()) - 1
    left: list[Block] = []
    middle: list[Block] = []
    right: list[Block] = []
    for blk in blocks:
        if blk is chosen:
            continue
        t, b = blk
        mask, first, upto = (t, t_first, t_upto) if t else (b, b_first, b_upto)
        if mask < first:
            left.append(blk)
        elif not mask & upto:
            right.append(blk)
        else:
            middle.append(blk)
    return chosen, left, _group_middle(middle, order), right


def _expand(diagram: PartitionDiagram, steps: list[Split] | None = None) -> list[Block]:
    """Run the split recursion depth first; return the non-singleton blocks in walk order.

    Factors come out as left, middle groups, right, then the chosen block;
    a factor without a propagating block is a leaf.  The result lists each
    chosen block as it pops and each leaf's blocks as they stand (top-only
    blocks by least top node, an order every split keeps).  Empty pieces
    are skipped.  Splits are appended to ``steps`` when given.
    """
    out: list[Block] = []
    order = diagram.order
    work: list[list[Block] | Block] = [_non_singletons(diagram)]
    while work:
        item = work.pop()
        if isinstance(item, tuple):  # a chosen block, never split again
            out.append(item)
            continue
        split = _split(item, order)
        if split is None:
            out += item
            continue
        if steps is not None:
            steps.append(split)
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
    split = _split(_non_singletons(diagram), n)
    if split is None:
        raise ValueError("diagram has no propagating block")
    chosen, left, groups, right = split
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
    return _assemble(order, [blk for f in fs for blk in _non_singletons(f)])


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
