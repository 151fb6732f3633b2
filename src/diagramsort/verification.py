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
from typing import Callable, NamedTuple

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
from .sorting import sort_diagram, sort_word
from .stretch import SetComposition, is_stretch_of_identity, stretch_map
from .analysis import (
    _bell,
    _census_row,
    _census_table,
    _packed_words,
    _sort_packed,
    _word_diagram,
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
# 7, the word map (analysis._sort_packed) on all Fubini(8) packed words
# order 8, and a mask-level counter, since removed, orders 8 and 9; orders
# 10-20 rest on the recursion alone.
SORTABLE_COUNTS = {
    0: 1, 1: 1, 2: 3, 3: 12, 4: 56, 5: 297, 6: 1753, 7: 11360,
    8: 80084, 9: 610078, 10: 4996600, 11: 43815540, 12: 409977172,
    13: 4081272259, 14: 43114046069, 15: 482203093337, 16: 5697968563663,
    17: 70998602114419, 18: 931182967959351, 19: 12833205085012480,
    20: 185543061912332326,
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


def _check_word_sort_oracle() -> str:
    # On a permutation M is empty, so _sort_packed is sort(L n R) = sort(L) sort(R) n.
    memo: dict = {}
    total = 0
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            _require(
                sort_word(p) == _sort_packed(p, memo),
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


def _check_census_counter(deep: bool) -> str:
    """The recursion against the word map per order; the word map against the sort's whole image per word."""
    memo: dict = {}
    count = _census_table()
    sortable: Counter = Counter()  # by letter counts, the bottom sizes of the word's candidate
    words = 0
    for n in range(7 if deep else 6):
        counted = 0
        for w in _packed_words(n):
            image = _sort_packed(w, memo)
            _require(
                sort_diagram(_word_diagram(w)) == _word_diagram(image),
                f"sort image wrong on the candidate of word {w}",
            )
            if all(a <= b for a, b in zip(image, image[1:])):
                counted += 1
                sortable[tuple(map(w.count, range(1, max(w, default=0) + 1)))] += 1
            words += 1
        recursion = count(n)[0]
        _require(recursion == counted, f"recursion at n={n}: {recursion} != {counted} from the word map")
    _require((sortable[1, 1, 2, 1], sortable[1, 2, 1, 1]) == (29, 28), "(1,1,2,1), (1,2,1,1) must give 29, 28")
    return f"recursion = word map = direct sort, n <= {n}; {words} packed words"


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
            _require(_word_diagram(p) == d, f"the census's word encoding disagrees with the embedding on {p}")
            seen.add(d)
        _require(len(seen) == factorial(n), "embedding is not injective")
    return "injective with full propagation, equal to the word encoding, n <= 6"


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


def _check_stretch_characterization() -> str:
    total = 0
    for n in range(4):
        comps = [  # an ordered set partition of a subset is a packed word over it
            SetComposition([[x for x, j in zip(subset, w) if j == c] for c in range(1, max(w, default=0) + 1)])
            for size in range(n + 1)
            for subset in combinations(range(1, n + 1), size)
            for w in _packed_words(size)
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
    # t passes of sort_word, none skipped, against is_t_stack_sortable, which stops once the word is increasing.
    for n in range(1, 7):
        increasing = tuple(range(1, n + 1))
        _require(sort_word(increasing) == increasing, f"sort_word moves the increasing word {increasing}")
        for p in permutations(increasing):
            w, sortable = p, []
            for t in range(4):
                sortable.append(w == increasing)
                _require(is_t_stack_sortable(p, t) == sortable[-1], f"is_t_stack_sortable({p}, {t}) disagrees with {t} passes")
                w = sort_word(w)
            _require(sortable == sorted(sortable), f"sortability not monotone on {p}")
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
    # Bell numbers by B(m + 1) = sum of C(m, k) B(k): the census takes its totals from _bell's triangle.
    top = max(SORTABLE_COUNTS)
    bell = [1]
    for m in range(2 * top):
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
    count = _census_table()  # one fill, read at every order
    for n, want in SORTABLE_COUNTS.items():
        row = _census_row(n, count)
        _require(row.total == bell[2 * n], f"census total at n={n} is not Bell(2n)")
        _require(row.sortable == want, f"census at n={n}: {row.sortable} != pinned {want} (computed, not from paper)")
    return f"sortable counts {list(SORTABLE_COUNTS.values())} (computed, not from paper)"


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
            # An AssertionError is the check's own verdict (_require); any other exception is a crash.
            detail = str(exc) if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results
