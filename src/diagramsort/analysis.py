"""Sortability predicates, pattern counts, and the exhaustive census.

A diagram is stretch-stack-sortable when its stack-sorting image is a
stretch of an identity diagram.  Besides the direct test, there is an
equivalent structural test: every block must propagate with equally many
top and bottom nodes, each block's bottom indices must be consecutive,
and no split step may assign a block with larger bottom labels to an
earlier factor than a block with smaller ones.

The census counts sortable diagrams of one order by scanning all
Bell(2n) diagrams.  Those counts are computed here, not quoted from any
published table.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .core import PartitionDiagram, _min_bit, _rgs_strings, enumerate_diagrams, format_diagram
from .sorting import Split, _expand, sort_diagram, sort_word
from .stretch import is_stretch_of_identity

__all__ = [
    "VerificationError",
    "contains_231",
    "is_t_stack_sortable",
    "is_sss_direct",
    "is_sss_theorem",
    "CensusRow",
    "census_stretch_sortable",
    "count_1_stack_sortable",
    "count_t_stack_sortable",
]


class VerificationError(Exception):
    """A cross-check that should always hold has failed."""


def _check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("word is not a permutation of 1..n")
    return w


def contains_231(word: Sequence[int]) -> bool:
    """Whether positions i < j < k exist with p(k) < p(i) < p(j).

    >>> contains_231((2, 3, 1))
    True
    >>> contains_231((3, 1, 2))
    False
    """
    w = _check_permutation(word)
    n = len(w)
    # suffix_min[j] = smallest letter strictly right of position j
    suffix_min = [0] * n
    running = n + 1
    for j in range(n - 1, -1, -1):
        suffix_min[j] = running
        running = min(running, w[j])
    for j in range(n):
        for i in range(j):
            if suffix_min[j] < w[i] < w[j]:
                return True
    return False


def is_t_stack_sortable(word: Sequence[int], t: int) -> bool:
    """Whether t passes of stack-sorting turn the permutation increasing."""
    w = _check_permutation(word)
    if t < 0:
        raise ValueError("t must be nonnegative")
    for _ in range(t):
        w = sort_word(w)
    return w == tuple(range(1, len(w) + 1))


def is_sss_direct(diagram: PartitionDiagram) -> bool:
    """Stretch-stack-sortability by definition: sort, then inspect the image."""
    return is_stretch_of_identity(sort_diagram(diagram))


def _is_interval(mask: int) -> bool:
    shifted = mask >> ((mask & -mask).bit_length() - 1)
    return shifted & (shifted + 1) == 0


def is_sss_theorem(diagram: PartitionDiagram) -> bool:
    """Stretch-stack-sortability by the structural test (no image needed).

    Conditions: every block propagates; every block has equally many top
    and bottom nodes; every block's bottom indices are consecutive; and in
    no split step does a block with larger bottom labels land in a factor
    strictly earlier (left factor before middle groups before right
    factor) than a block with smaller bottom labels.
    """
    for t, b in diagram.blocks:
        if not (t and b):
            return False
        if t.bit_count() != b.bit_count():
            return False
        if not _is_interval(b):
            return False
    steps: list[Split] = []
    _expand(diagram, steps)
    for _, left, groups, right in steps:
        # Rank factors L < M_1 < ... < M_k < R; tag each block by its least bottom node.
        tagged = sorted(
            (_min_bit(b), rank)
            for rank, piece in enumerate((left, *groups, right))
            for _, b in piece
        )
        for (_, earlier), (_, later) in zip(tagged, tagged[1:]):
            if later < earlier:
                return False
    return True


@dataclass(frozen=True)
class CensusRow:
    """One census result: all diagrams of the order versus sortable ones."""

    n: int
    total: int
    sortable: int
    elapsed: float


def _scan(order: int, prefix: tuple[int, ...], check: bool) -> tuple[int, int]:
    total = 0
    sortable = 0
    for d in enumerate_diagrams(order, prefix):
        total += 1
        ok = is_sss_direct(d)
        if check and ok != is_sss_theorem(d):
            raise VerificationError(
                f"sortability predicates disagree on {format_diagram(d)} at order {order}"
            )
        if ok:
            sortable += 1
    return total, sortable


def _scan_args(args: tuple[int, tuple[int, ...], bool]) -> tuple[int, int]:
    return _scan(*args)


def _worker_count(jobs: int, chunks: int) -> int:
    """Worker processes worth starting: no more than the chunks or the CPUs."""
    return max(1, min(jobs, chunks, os.cpu_count() or 1))


def census_stretch_sortable(n: int, *, check: bool = False, jobs: int = 1) -> CensusRow:
    """Count stretch-stack-sortable diagrams among all diagrams of order n.

    With ``check`` set, the direct and structural predicates are compared
    on every diagram.  ``jobs`` > 1 splits the enumeration by restricted
    growth prefix across processes; the counts are identical regardless of
    worker count.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    start = time.perf_counter()
    if jobs <= 1 or 2 * n < 2:
        total, sortable = _scan(n, (), check)
    else:
        depth = min(2 * n, 4)
        chunks = [(n, p, check) for p in _rgs_strings(depth)]
        total = sortable = 0
        with ProcessPoolExecutor(max_workers=_worker_count(jobs, len(chunks))) as pool:
            for t, s in pool.map(_scan_args, chunks):
                total += t
                sortable += s
    return CensusRow(n=n, total=total, sortable=sortable, elapsed=time.perf_counter() - start)


def count_t_stack_sortable(n: int, t: int) -> int:
    """How many permutations of 1..n become increasing after t sorting passes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    return sum(1 for p in permutations(range(1, n + 1)) if is_t_stack_sortable(p, t))


def count_1_stack_sortable(n: int) -> int:
    return count_t_stack_sortable(n, 1)
