"""Sortability predicates, pattern counts, and the sortability census.

A diagram is stretch-stack-sortable when its stack-sorting image is a
stretch of an identity diagram.  The direct test sorts and inspects the
image.  The equivalent structural test builds no image: it checks block
shapes, then walks the sort's split tree and stops at the first step
that puts a block in an earlier factor than one with smaller bottom
labels, comparing each factor's bottoms as one mask.

A stretched identity has equal top and bottom sets in every block, and
the sort keeps each block's sizes, never moves a bottom label and gives
each propagating block consecutive top labels, so only diagrams of the
right block shapes can be sortable.  The census counts the sortable
structural candidates, Fubini(n) of the Bell(2n) diagrams, in one table
grown order by order by a recursion on packed words that builds none of
them; the ``check`` oracle sorts all Bell(2n) and recounts all three.
The counts are computed here, not quoted from any published table.
"""

from __future__ import annotations

import os
import time
from itertools import permutations
from math import comb
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import PartitionDiagram, _permutation, _rgs_strings, enumerate_diagrams, format_diagram
from . import sorting
from .sorting import _structural_failure, sort_diagram, sort_word
from .stretch import is_stretch_of_identity

__all__ = [
    "VerificationError",
    "contains_231",
    "is_t_stack_sortable",
    "is_sss_direct",
    "is_sss_theorem",
    "CensusRow",
    "census_stretch_sortable",
    "count_t_stack_sortable",
]


class VerificationError(Exception):
    """A cross-check that should always hold has failed."""


def contains_231(word: Sequence[int]) -> bool:
    """Whether positions i < j < k exist with p(k) < p(i) < p(j).

    >>> contains_231((2, 3, 1))
    True
    >>> contains_231((3, 1, 2))
    False
    """
    w = _permutation(word)
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
    """Whether t passes of stack-sorting turn the permutation increasing; they stop once it is (n - 1 at most)."""
    w = _permutation(word)
    if t < 0:
        raise ValueError("t must be nonnegative")
    increasing = tuple(range(1, len(w) + 1))
    while t and w != increasing:
        w = sort_word(w)
        t -= 1
    return w == increasing


def is_sss_direct(diagram: PartitionDiagram) -> bool:
    """Stretch-stack-sortability by definition: sort, then inspect the image."""
    return is_stretch_of_identity(sort_diagram(diagram))


def is_sss_theorem(diagram: PartitionDiagram) -> bool:
    """Stretch-stack-sortability by the structural test, without sorting.

    Every block must propagate with equally many top and bottom nodes and
    consecutive bottom indices.  Then each split step is checked as the
    recursion makes it: no block may land in an earlier factor (left,
    middle groups, right) than a block with smaller bottom labels.
    The test stops at the first broken step.
    """
    return _structural_failure(diagram) is None


class CensusRow(NamedTuple):
    """One census result: all diagrams of the order versus sortable ones.

    ``candidates``: the structural candidates, Fubini(n); ``states``: the
    memo states the count of order n fills.  ``check`` changes only ``elapsed``.
    """

    n: int
    total: int
    sortable: int
    elapsed: float
    candidates: int = 0
    states: int = 0


def _bell(m: int) -> int:
    """Bell number B(m), the number of set partitions of m points."""
    # Bell triangle: next row starts with the previous row's last entry.
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _packed_words(n: int) -> Iterator[tuple[int, ...]]:
    """Every word of length n over 1..k that uses each letter, for some k; Fubini(n) of them.

    Each restricted growth string, for each ordering of its classes.
    """
    for rgs in _rgs_strings(n):
        for letters in permutations(range(1, len(set(rgs)) + 1)):
            yield tuple(letters[c] for c in rgs)


def _word_diagram(w: tuple[int, ...]) -> PartitionDiagram:
    """The structural candidate of a packed word: top p lies in the block on the w(p)-th bottom interval."""
    k = max(w, default=0)
    tops, bottoms = [0] * k, [0] * k
    for p, (j, i) in enumerate(zip(w, sorted(w))):  # the sorted word runs along the bottom intervals
        tops[j - 1] |= 1 << p
        bottoms[i - 1] |= 1 << p
    return PartitionDiagram(len(w), zip(tops, bottoms))


def _sort_packed(w: tuple[int, ...], memo: dict) -> tuple[int, ...]:
    """The sort on words: s(w) = s(L) s(M) s(R) k...k, k the largest letter.

    L holds the letters whose occurrences all come before the first k, R
    those whose occurrences all come after the last k, and M the rest.
    """
    if not w:
        return w
    if w not in memo:
        k = max(w)
        first, last = w.index(k), len(w) - w[::-1].index(k)
        left, right = set(w[:first]).difference(w[first:]), set(w[last:]).difference(w[:last])
        memo[w] = (
            _sort_packed(tuple([x for x in w if x in left]), memo)
            + _sort_packed(tuple([x for x in w if x != k and x not in left and x not in right]), memo)
            + _sort_packed(tuple([x for x in w if x in right]), memo)
            + (k,) * w.count(k)
        )
    return memo[w]


def _census_table() -> Callable[[int], tuple[int, int]]:
    """count(n) = (sortable candidates of order n, memo states), from one fill grown order by order.

    A candidate is a packed word, as :func:`_word_diagram` encodes it,
    and sorts as :func:`_sort_packed` does: with C the largest letter, w
    sorts iff L, M and R do and L < M < R.  h(m, x, y)
    counts sortable words of length m with no letter wholly in the first
    x or the last y positions.  C's first position p and last q leave a
    left zone [1, max(p, x)], a right zone [min(q, m - y + 1), m] and z
    positions between, each C or M; L lies before p, R after q, and M's
    rule counts its positions in each zone.  h(m, x, y) = h(m, y, x), and
    x + y <= m in every state reached from h(n, 0, 0).  A state sums, over
    the right zone's size rz and its fillings with b M positions, those
    fillings times the prefix P(x, m - rz, b), the sum over lz and a of
    zone(x, lz)[a] * middle(m - rz - lz, a, b), or, where the zones share
    one position (lz + rz = m + 1), times left(x, lz, b), the sum over a of
    zone(x, lz)[a] * middle(0, a, b).  Neither reads m or y, as a zone
    depends only on x and lz and the middle on z, a and b, so both are
    memoized; both are summed only for a b that has fillings.  ``count``
    fills orders 0..n in turn, one ``binom`` row each; order k's fill
    reaches h(k - 1, 0, 0), so it holds every lower order's states.
    """
    binom, rows = [], []  # each grows one row per order filled
    memo = {(0, 0, 0): 1}
    zones: dict = {}
    middles: dict = {}
    prefixes: dict = {}
    lefts: dict = {}

    def count(n: int) -> tuple[int, int]:
        for k in range(len(rows), n + 1):
            binom.append([comb(k, i) for i in range(k + 1)])
            rows.append((h(k, 0, 0), len(memo)))
        return rows[n]

    def h(m: int, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        if (total := memo.get((m, x, y))) is not None:
            return total
        total = 0
        for rz in range(y or 1, m + 1 - (x or 1)):  # zones apart: lz + rz <= m
            u = m - rz
            for b, wb in enumerate(zones.get((y, rz)) or zone(y, rz)):
                if wb:
                    if (p := prefixes.get((x, u, b))) is None:
                        p = prefix(x, u, b)
                    total += wb * p
        for rz in range(y + 1, m + 1 - x):  # zones share lz = m + 1 - rz, lz > x and rz > y: p < q
            lz = m + 1 - rz
            for b, wb in enumerate(zones.get((y, rz)) or zone(y, rz)):
                if wb:
                    if (p := lefts.get((x, lz, b))) is None:
                        p = left(x, lz, b)
                    total += wb * p
        memo[m, x, y] = total
        return total

    def prefix(x: int, u: int, b: int) -> int:
        total = 0
        for lz in range(x or 1, u + 1):
            z = u - lz
            for a, wa in enumerate(zones.get((x, lz)) or zone(x, lz)):
                if wa:
                    if (c := middles.get((z, a, b))) is None:
                        c = middle(z, a, b)
                    total += wa * c
        prefixes[x, u, b] = total
        return total

    def left(x: int, lz: int, b: int) -> int:
        total = 0
        for a, wa in enumerate(zones.get((x, lz)) or zone(x, lz)):
            if wa:
                total += wa * h(a + b, a, b)
        lefts[x, lz, b] = total
        return total

    def middle(z: int, a: int, b: int) -> int:
        total = 0
        for i, c in enumerate(binom[z]):
            total += c * h(a + b + i, a, b)
        middles[z, a, b] = total
        return total

    def zone(x: int, lz: int) -> list[int]:
        """Fillings of [1, lz] by their number of M positions; never empty (lz >= 1), so lookups use ``or``."""
        if lz <= x:  # p <= x: M before p (an L letter would break the rule), C or M after
            out = binom[x][:x]
        else:  # p = lz: L or M before it, the first x positions in L's rule
            out = [0] * lz
            for i, ci in enumerate(binom[x]):
                for j, cj in enumerate(binom[lz - 1 - x]):
                    out[lz - 1 - i - j] += ci * cj * h(i + j, i, 0)
        zones[x, lz] = out
        return out

    return count


def _scan(args: tuple[int, tuple[int, ...]]) -> tuple[int, int, int]:
    """(diagrams, structural candidates, sortable ones) extending an RGS prefix; both predicates must agree."""
    order, prefix = args
    total = candidates = sortable = 0
    for d in enumerate_diagrams(order, prefix):
        total += 1
        # is_sss_theorem's shape test, looked up in sorting at each call
        candidates += type(sorting._candidate_items(d.blocks)) is not str
        ok = is_sss_direct(d)
        if ok != is_sss_theorem(d):
            raise VerificationError(
                f"sortability predicates disagree on {format_diagram(d)} at order {order}"
            )
        sortable += ok
    return total, candidates, sortable


# The --check oracle starts worker processes only above this many diagrams:
# with 2 x86 cores two workers lost on order 4 (Bell(8) = 4140) and saved 40%
# on order 5 (Bell(10) = 115975).
POOL_MIN_CANDIDATES = 50000


def _fubini(n: int) -> int:
    """Ordered Bell number Fubini(n): the structural candidates of order n."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[n]


def _map_chunks(fn: Callable, chunks: list, jobs: int, diagrams: int) -> list:
    """``fn`` over the chunks, in order, in up to ``jobs`` processes above ``POOL_MIN_CANDIDATES`` diagrams."""
    workers = min(jobs, len(chunks), os.cpu_count() or 1) if diagrams > POOL_MIN_CANDIDATES else 1
    if workers == 1:
        return [fn(chunk) for chunk in chunks]
    from concurrent.futures import ProcessPoolExecutor  # 2.5 MB: import on first use

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def census_stretch_sortable(n: int, *, check: bool = False, jobs: int = 1) -> CensusRow:
    """Count stretch-stack-sortable diagrams among all diagrams of order n.

    The count comes from a fresh :func:`_census_table`, which builds no diagram.
    With ``check`` set, every diagram is also sorted and both predicates
    compared on it; :class:`VerificationError` is raised if they disagree
    or if the diagrams, candidates or sortable ones scanned are not
    Bell(2n), Fubini(n) and the count (sortable implies candidate, as the
    structural test rejects every shape fault).  ``jobs`` > 1 splits that
    scan by restricted growth prefix across processes above
    ``POOL_MIN_CANDIDATES`` diagrams.  Neither changes the row but ``elapsed``.
    """
    return _census_row(n, _census_table(), check=check, jobs=jobs)


def _census_row(n: int, count: Callable[[int], tuple[int, int]], *, check: bool = False, jobs: int = 1) -> CensusRow:
    """:func:`census_stretch_sortable`'s row, read from ``count``; ``elapsed`` times what order n adds to its fill."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    start = time.perf_counter()
    total, candidates = _bell(2 * n), _fubini(n)
    sortable, states = count(n)
    if check:
        prefixes = _rgs_strings(min(2 * n, 6))  # Bell(6) = 203 chunks
        scans = _map_chunks(_scan, [(n, p) for p in prefixes], jobs, total)
        diagrams, shaped, found = map(sum, zip(*scans))
        for what, got, want in (
            ("diagrams, Bell(2n)", diagrams, total),
            ("candidates, Fubini(n)", shaped, candidates),
            ("sortable counted, scanned", sortable, found),
        ):
            if got != want:
                raise VerificationError(f"order {n} {what}: {got} != {want}")
    elapsed = time.perf_counter() - start
    return CensusRow(n, total, sortable, elapsed, candidates, states)


def count_t_stack_sortable(n: int, t: int) -> int:
    """How many permutations of 1..n become increasing after t sorting passes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return sum(1 for p in permutations(range(1, n + 1)) if is_t_stack_sortable(p, t))
