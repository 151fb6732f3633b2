"""Stretch morphisms: inflate a diagram's nodes into blocks of nodes.

A set composition (A_1, ..., A_m) of pairwise-disjoint sets of positive
integers turns a diagram of order m into one of order k: node i is
replaced on both rows by the whole set A_i, and every index up to k that
no part uses is padded with a vertical strut {i, i'}.  Images of identity
diagrams are exactly the diagrams in which every block has the same top
and bottom index sets.
"""

from __future__ import annotations

from typing import Iterable

from .core import PartitionDiagram, _bits, _mask, _read_int, canonicalize

__all__ = [
    "SetComposition",
    "delta_k",
    "stretch_map",
    "is_stretch_of_identity",
]


class SetComposition:
    """An ordered sequence of pairwise-disjoint nonempty sets of positive ints."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Iterable[int]]):
        ps = []
        seen: set[int] = set()
        for part in parts:
            fs = frozenset(part)
            if not fs:
                raise ValueError("parts must be nonempty")
            for x in fs:
                if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                    raise ValueError("parts must contain positive integers")
            if fs & seen:
                raise ValueError("parts must be pairwise disjoint")
            seen |= fs
            ps.append(fs)
        self.parts: tuple[frozenset[int], ...] = tuple(ps)

    @classmethod
    def parse(cls, text: str) -> "SetComposition":
        """Parse "1,2|3|5,6,7|4" into four parts."""
        compact = "".join(text.split())
        if not compact:
            return cls([])
        parts = []
        for chunk in compact.split("|"):
            if not chunk:
                raise ValueError("empty part in set composition text")
            try:
                part = [_read_int(tok) for tok in chunk.split(",")]
            except ValueError:
                raise ValueError(f"bad part {chunk!r} in set composition text") from None
            if len(set(part)) != len(part):
                repeated = next(x for i, x in enumerate(part) if x in part[:i])
                raise ValueError(f"repeated integer {repeated} in part {chunk!r} of set composition text")
            parts.append(part)
        return cls(parts)

    @property
    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for p in self.parts:
            out |= p
        return out

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetComposition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(x) for x in sorted(p)) for p in self.parts)
        return f"SetComposition.parse({inner!r})"


def delta_k(blocks: Iterable[Iterable[int]], k: int) -> PartitionDiagram:
    """Pad partial blocks out to order k with vertical struts.

    ``blocks`` are sets of signed nodes covering some index set S on both
    rows; every index i <= k outside S gains the block {i, i'}.  Requires
    k at least max(S).
    """
    blks = [frozenset(b) for b in blocks]
    support = {abs(x) for blk in blks for x in blk}
    if support and k < max(support):
        raise ValueError("k must be at least the largest index used")
    return canonicalize(blks + [{i, -i} for i in range(1, k + 1) if i not in support], k)


def stretch_map(alpha: "SetComposition | Iterable[Iterable[int]]", k: int, diagram: PartitionDiagram) -> PartitionDiagram:
    """Inflate each index i of the diagram into the part alpha[i] on both rows.

    The composition must have exactly one part per diagram index, and k
    must cover every integer the parts use.
    """
    comp = alpha if isinstance(alpha, SetComposition) else SetComposition(alpha)
    if len(comp) != diagram.order:
        raise ValueError("set composition length must equal the diagram order")
    if max(map(max, comp), default=0) > k:  # before any mask: a huge index would allocate a huge int
        raise ValueError("k must be at least the largest index used")
    masks = [_mask(part) for part in comp]
    blocks = []
    support = 0
    for t, b in diagram.blocks:
        top = bottom = 0
        for i in _bits(t):
            top |= masks[i - 1]
        for i in _bits(b):
            bottom |= masks[i - 1]
        blocks.append((top, bottom))
        support |= top
    free = ((1 << k) - 1) & ~support
    while free:
        low = free & -free
        blocks.append((low, low))
        free ^= low
    return PartitionDiagram(k, blocks)


def is_stretch_of_identity(diagram: PartitionDiagram) -> bool:
    """True when every block has equal top and bottom index sets.

    These are exactly the images of identity diagrams under stretch maps.
    """
    return all(t == b for t, b in diagram.blocks)
