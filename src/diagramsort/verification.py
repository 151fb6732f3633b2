"""Self-contained invariant suite behind the ``verify`` command.

Every check recomputes its expected values from scratch (closed-form
counts, independent oracles, or frozen hand-checked literals), so a green
run certifies the library against data it did not produce itself.  The
stretch-stack-sortable census has no published ground truth; its pinned
counts are regression constants computed by this package and labeled as
such.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import (
    PartitionDiagram,
    _diagram_from_rgs,
    compose,
    embed_permutation,
    enumerate_diagrams,
    format_diagram,
    identity_diagram,
    parse_diagram,
)
from .sorting import Block, _titems, sort_diagram, sort_word
from .stretch import SetComposition, is_stretch_of_identity, stretch_map
from .analysis import (
    _bell,
    _count_sss,
    _first_broken_step,
    census_stretch_sortable,
    contains_231,
    count_t_stack_sortable,
    is_sss_direct,
    is_sss_theorem,
    is_t_stack_sortable,
)

__all__ = ["CheckResult", "run_checks", "SORTABLE_COUNTS"]

# Stretch-stack-sortable counts per order: regression constants computed
# by this package, not from paper.  The exhaustive Bell(2n) scan (census
# --check) confirmed orders 0-6, the direct sort of every candidate order
# 7, the mask counter orders 8 and 9; orders 10-12 rest on the recursion.
SORTABLE_COUNTS = {
    0: 1, 1: 1, 2: 3, 3: 12, 4: 56, 5: 297, 6: 1753, 7: 11360,
    8: 80084, 9: 610078, 10: 4996600, 11: 43815540, 12: 409977172,
}


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _random_diagram(rng: random.Random, order: int) -> PartitionDiagram:
    rgs = []
    high = 0
    for _ in range(2 * order):
        v = rng.randint(0, high)
        rgs.append(v)
        high = max(high, v + 1)
    return _diagram_from_rgs(order, tuple(rgs))


def _check_golden_examples() -> str:
    """Hand-checked evaluations with zero tolerance."""
    d1 = parse_diagram("{1,4|2,3,4',5'|5|1',3'|2'}", 5)
    d2 = parse_diagram("{1,3|2,4,3'|5,4',5'}", 5)
    product, middle = compose(d1, d2)
    _require(product == parse_diagram("{1,4|2,3,3',4',5'}", 5), "composition product wrong")
    _require(middle == 1, "middle component count wrong")

    big = parse_diagram("{1,2|3,5,7,2',4',6'|4,3'|6,7'|5',8'}", 8)
    _require(
        sort_diagram(big) == parse_diagram("{1,3'|2,3,4,2',4',6'|5,7'|6,7|5',8'}", 8),
        "eight-node sort image wrong",
    )

    _require(sort_diagram(embed_permutation((3, 1, 2))) == identity_diagram(3), "312 must sort to the identity")

    four = parse_diagram("{1,4'|2,1'|3,4,2',3'}", 4)
    _require(sort_diagram(four) == parse_diagram("{1,1'|2,3,2',3'|4,4'}", 4), "four-node sort image wrong")

    sortable = parse_diagram("{1,3,2',3'|2,1'}", 3)
    _require(is_sss_direct(sortable) and is_sss_theorem(sortable), "three-node diagram must be sortable")

    nine = parse_diagram("{1,2,3,4',5',6'|4,6,7,1',2',3'|5,8,9,7',8',9'}", 9)
    _require(
        sort_diagram(nine) == parse_diagram("{1,2,3,4',5',6'|4,5,6,1',2',3'|7,8,9,7',8',9'}", 9),
        "nine-node sort image wrong",
    )
    _require(not is_sss_direct(nine) and not is_sss_theorem(nine), "nine-node diagram must not be sortable")

    alpha = SetComposition.parse("1,2|3|5,6,7|4")
    image = stretch_map(alpha, 7, identity_diagram(4))
    _require(
        image == parse_diagram("{1,2,1',2'|3,3'|4,4'|5,6,7,5',6',7'}", 7),
        "stretch image wrong",
    )
    return "7 golden evaluations"


def _sort_word_by_definition(word: tuple[int, ...]) -> tuple[int, ...]:
    """sort(L n R) = sort(L) sort(R) n, where n is the largest letter."""
    if not word:
        return ()
    i = word.index(max(word))
    return _sort_word_by_definition(word[:i]) + _sort_word_by_definition(word[i + 1 :]) + (word[i],)


def _check_word_sort_oracle() -> str:
    total = 0
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            _require(
                sort_word(p) == _sort_word_by_definition(p),
                f"sort_word disagrees with the definition on {p}",
            )
            total += 1
    _require(sort_word((5, 4, 3, 2, 1, 6)) == (1, 2, 3, 4, 5, 6), "543216 must sort to 123456")
    return f"{total} words against the recursive definition"


def _check_lift_of_word_sort() -> str:
    total = 0
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            _require(
                sort_diagram(embed_permutation(p)) == embed_permutation(sort_word(p)),
                f"diagram sort disagrees with word sort on {p}",
            )
            total += 1
    return f"{total} permutations, n <= 6"


def _check_knuth_catalan() -> str:
    for n in range(1, 8):
        count = 0
        for p in permutations(range(1, n + 1)):
            one_pass = is_t_stack_sortable(p, 1)
            _require(one_pass == (not contains_231(p)), f"231 avoidance mismatch on {p}")
            count += one_pass
        _require(count == comb(2 * n, n) // (n + 1), f"one-pass count at n={n} is not Catalan")
    return "one-pass sortable == 231-avoiding == Catalan, n <= 7"


def _check_two_stack_counts() -> str:
    values = []
    for n in range(1, 8):
        expected = 2 * factorial(3 * n) // (factorial(n + 1) * factorial(2 * n + 1))
        got = count_t_stack_sortable(n, 2)
        _require(got == expected, f"two-pass count at n={n}: {got} != {expected}")
        values.append(got)
    return f"two-pass sortable counts {values}"


def _check_predicates_agree(deep: bool) -> str:
    """The census oracle compares both predicates on every diagram."""
    top = 5 if deep else 4
    total = sum(census_stretch_sortable(n, check=True).total for n in range(top + 1))
    return f"{total} diagrams, n <= {top}"


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Every sequence of positive parts summing to n; 2^(n-1) of them for n >= 1."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def _subsets(mask: int, size: int) -> list[int]:
    """Every submask of ``mask`` with ``size`` bits."""
    bits = []
    while mask:
        bits.append(mask & -mask)
        mask ^= bits[-1]
    return [sum(c) for c in combinations(bits, size)]


def _candidates(order: int, sizes: tuple[int, ...]) -> Iterator[list[Block]]:
    """Every structural candidate with bottom intervals of these sizes, left to right.

    Each block takes a top set of its bottom's size from the nodes left free.
    """
    bottoms = [((1 << size) - 1) << sum(sizes[:j]) for j, size in enumerate(sizes)]

    def assign(j: int, free: int) -> Iterator[list[Block]]:
        if j == len(sizes):
            yield []
            return
        for top in _subsets(free, sizes[j]):
            for tail in assign(j + 1, free ^ top):
                yield [(top, bottoms[j]), *tail]

    return assign(0, (1 << order) - 1)


def _count_sortable(args: tuple[int, tuple[int, ...]]) -> tuple[int, int]:
    """(candidates, sortable) for one bottom composition, counted on masks.

    The recursion's oracle.  The first split chooses C, the block on the
    last bottom interval.  The other blocks take tops in bottom order,
    classed L, M or R as in ``sorting._scan_cluster``; a class below the last
    breaks the first step, so the branch stops and its completions are
    counted.  Survivors' pieces walk on; all blocks propagate, so M is one
    group.
    """
    order, sizes = args
    if not sizes:
        return 1, 1  # the empty diagram is the identity of order 0
    *sizes, last = sizes
    bottoms = [((1 << size) - 1) << sum(sizes[:j]) for j, size in enumerate(sizes)]
    completions = [1]  # [j]: ways for blocks j.. to take tops from the nodes they leave free
    for j in reversed(range(len(sizes))):
        completions.insert(0, completions[0] * comb(sum(sizes[j:]), sizes[j]))
    pieces = ([], [], [])  # L, M, R
    candidates = sortable = 0

    def assign(j: int, free: int, floor: int) -> None:
        nonlocal candidates, sortable
        if j == len(sizes):
            candidates += 1
            sortable += not any(_first_broken_step(sorted(_titems(p))) for p in pieces)
            return
        for top in _subsets(free, sizes[j]):
            cls = 0 if top < first else 2 if not top & upto else 1
            if cls < floor:
                candidates += completions[j + 1]
                continue
            pieces[cls].append((top, bottoms[j]))
            assign(j + 1, free ^ top, cls)
            pieces[cls].pop()

    everything = (1 << order) - 1
    for chosen in _subsets(everything, last):  # assign classes against this C's first and upto
        first, upto = chosen & -chosen, (1 << chosen.bit_length()) - 1
        assign(0, everything ^ chosen, 0)
    return candidates, sortable


def _check_census_counter(deep: bool) -> str:
    """The recursion against the mask counter per order; the counter against the direct sort per composition."""
    got = {}
    for n in range(7 if deep else 6):
        counted = 0
        for sizes in _compositions(n):
            direct = [is_sss_direct(PartitionDiagram(n, b)) for b in _candidates(n, sizes)]
            got[sizes] = _count_sortable((n, sizes))
            _require(got[sizes] == (len(direct), sum(direct)), f"counter wrong on bottom sizes {sizes}")
            counted += got[sizes][1]
        recursion = _count_sss(n)[0]
        _require(recursion == counted, f"recursion at n={n}: {recursion} != {counted} from the mask counter")
    _require((got[1, 1, 2, 1][1], got[1, 2, 1, 1][1]) == (29, 28), "(1,1,2,1), (1,2,1,1) must give 29, 28")
    return f"recursion = mask counter = direct sort, n <= {n}; {len(got)} bottom compositions"


def _check_identity_laws() -> str:
    total = 0
    for n in range(4):
        ident = identity_diagram(n)
        for d in enumerate_diagrams(n):
            _require(compose(ident, d) == (d, 0), f"left identity fails on {format_diagram(d)}")
            _require(compose(d, ident) == (d, 0), f"right identity fails on {format_diagram(d)}")
            total += 1
    return f"{total} diagrams, n <= 3"


def _check_associativity(rng: random.Random) -> str:
    samples = 1000
    for _ in range(samples):
        n = rng.randint(0, 4)
        a, b, c = (_random_diagram(rng, n) for _ in range(3))
        ab, l_ab = compose(a, b)
        bc, l_bc = compose(b, c)
        left, l_left = compose(ab, c)
        right, l_right = compose(a, bc)
        _require(left == right, "composition is not associative")
        _require(l_ab + l_left == l_bc + l_right, "middle-component exponents do not balance")
    return f"{samples} random triples, n <= 4"


def _signature(d: PartitionDiagram) -> Counter:
    return Counter((t.bit_count(), b.bit_count()) for t, b in d.blocks)


def _check_sort_structure() -> str:
    total = 0
    for n in range(5):
        for d in enumerate_diagrams(n):
            s = sort_diagram(d)
            _require(s.order == d.order, "sort changed the order")
            _require(_signature(s) == _signature(d), f"block signatures changed on {format_diagram(d)}")
            bottoms = {b for _, b in d.blocks}
            for t, b in s.blocks:
                if (t | b).bit_count() > 1 and b:
                    _require(b in bottoms, f"bottom labels moved on {format_diagram(d)}")
            if d.propagation_number() == 0:
                _require(s == d, f"non-propagating diagram moved: {format_diagram(d)}")
            total += 1
    return f"{total} diagrams, n <= 4"


def _check_embedding() -> str:
    for n in range(7):
        seen = set()
        for p in permutations(range(1, n + 1)):
            d = embed_permutation(p)
            _require(d.propagation_number() == n, "embedded permutation must fully propagate")
            seen.add(d)
        _require(len(seen) == factorial(n), "embedding is not injective")
    return "injective with full propagation, n <= 6"


def _check_enumeration() -> str:
    counts = []
    for n in range(5):
        seen = set(enumerate_diagrams(n))
        _require(len(seen) == _bell(2 * n), f"enumeration at n={n} misses diagrams")
        counts.append(len(seen))
    return f"distinct counts {counts} match the Bell triangle"


def _check_stretch_round_trip(rng: random.Random) -> str:
    samples = 1000
    for _ in range(samples):
        universe = [x for x in range(1, 7) if rng.random() < 0.7]
        rng.shuffle(universe)
        parts = []
        i = 0
        while i < len(universe):
            j = min(len(universe), i + rng.randint(1, 3))
            parts.append(universe[i:j])
            i = j
        alpha = SetComposition(parts)
        k = max(alpha.support, default=0) + rng.randint(0, 2)
        image = stretch_map(alpha, k, identity_diagram(len(alpha)))
        _require(is_stretch_of_identity(image), f"round trip failed for {alpha!r}")
    return f"{samples} random set compositions"


def _set_partitions(items: tuple[int, ...]) -> Iterable[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _check_stretch_characterization() -> str:
    total = 0
    for n in range(4):
        comps = [
            SetComposition(ordering)
            for size in range(n + 1)
            for subset in combinations(range(1, n + 1), size)
            for part in _set_partitions(subset)
            for ordering in permutations(part)
        ]
        singles = SetComposition([{i} for i in range(1, n + 1)])
        for d in enumerate_diagrams(n):
            found = any(stretch_map(a, n, identity_diagram(len(a))) == d for a in comps)
            _require(
                found == is_stretch_of_identity(d),
                f"characterization fails on {format_diagram(d)}",
            )
            _require(stretch_map(singles, n, d) == d, "singleton composition must act as identity")
            total += 1
    return f"{total} diagrams against brute-force search, n <= 3"


def _check_monotone() -> str:
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            for t in range(3):
                if is_t_stack_sortable(p, t):
                    _require(is_t_stack_sortable(p, t + 1), f"sortability not monotone on {p}")
    return "t-sortable implies (t+1)-sortable, n <= 6"


def _check_restriction() -> str:
    total = 0
    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            _require(
                is_sss_direct(embed_permutation(p)) == is_t_stack_sortable(p, 1),
                f"diagram and word sortability disagree on {p}",
            )
            total += 1
    return f"{total} permutations, n <= 5"


def _check_parser_round_trip(rng: random.Random) -> str:
    total = 0
    for n in range(6):
        for _ in range(1000):
            d = _random_diagram(rng, n)
            _require(parse_diagram(format_diagram(d), n) == d, f"round trip failed on {format_diagram(d)}")
            total += 1
    return f"{total} random diagrams, n <= 5"


def _check_census_regression() -> str:
    rows = []
    for n, want in sorted(SORTABLE_COUNTS.items()):
        row = census_stretch_sortable(n)
        _require(row.total == _bell(2 * n), f"census total at n={n} is not Bell(2n)")
        _require(
            row.sortable == want,
            f"census at n={n}: {row.sortable} != pinned {want} (computed, not from paper)",
        )
        rows.append(row.sortable)
    return f"sortable counts {rows} (computed, not from paper)"


def run_checks(deep: bool = False, seed: int = 2024) -> list[CheckResult]:
    """Run the whole suite; ``deep`` takes the predicate sweep to order 5 and the census counters to 6."""
    rng = random.Random(seed)
    suite: list[tuple[str, Callable[[], str]]] = [
        ("golden-examples", _check_golden_examples),
        ("word-sort-oracle", _check_word_sort_oracle),
        ("lift-of-word-sort", _check_lift_of_word_sort),
        ("knuth-catalan", _check_knuth_catalan),
        ("two-stack-counts", _check_two_stack_counts),
        ("predicates-agree", lambda: _check_predicates_agree(deep)),
        ("census-counter", lambda: _check_census_counter(deep)),
        ("compose-identity-laws", _check_identity_laws),
        ("compose-associativity", lambda: _check_associativity(rng)),
        ("sort-structure", _check_sort_structure),
        ("embedding", _check_embedding),
        ("enumeration-counts", _check_enumeration),
        ("stretch-round-trip", lambda: _check_stretch_round_trip(rng)),
        ("stretch-characterization", _check_stretch_characterization),
        ("t-sortable-monotone", _check_monotone),
        ("restriction-to-permutations", _check_restriction),
        ("parser-round-trip", lambda: _check_parser_round_trip(rng)),
        ("census-regression", _check_census_regression),
    ]
    results = []
    for name, fn in suite:
        start = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failing check must not stop the suite
            detail = str(exc)
            ok = False
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results
