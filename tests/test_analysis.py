"""Pattern containment, t-sortability, the two sortability predicates, censuses."""

from __future__ import annotations

import ast
import concurrent.futures
import os
import random
import re
import subprocess
import sys
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest

import diagramsort
import diagramsort.analysis as analysis_module
import diagramsort.sorting as sorting_module
import diagramsort.verification as verification_module
from diagramsort.analysis import (
    CensusRow,
    VerificationError,
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
from diagramsort.cli import run
from diagramsort.core import (
    PartitionDiagram,
    canonicalize,
    embed_permutation,
    enumerate_diagrams,
    format_diagram,
    parse_diagram,
)
from diagramsort.sorting import _structural_failure, sort_diagram, sort_diagram_traced
from diagramsort.stretch import is_stretch_of_identity
from diagramsort.verification import (
    SORTABLE_COUNTS,
    _check_census_counter,
    _check_census_regression,
    _check_knuth_catalan,
    _check_monotone,
    _check_predicates_agree,
    _check_restriction,
)
from reference import stretched_chain, structural_candidate, structural_failure_by_definition

# Ordered Bell (Fubini) numbers, OEIS A000670: structural candidates per order 0..6.
FUBINI = [1, 1, 3, 13, 75, 541, 4683]


def _contains_231_brute(p):
    return any(
        p[k] < p[i] < p[j]
        for i, j, k in combinations(range(len(p)), 3)
    )


# --- contains_231 ----------------------------------------------------------


def test_contains_231_examples():
    assert contains_231((2, 3, 1))
    assert not contains_231((5, 4, 3, 2, 1, 6))
    assert not contains_231((3, 1, 2))
    assert contains_231((2, 4, 3, 1))


def test_contains_231_rejects_non_permutation():
    with pytest.raises(ValueError):
        contains_231((1, 3))


def test_contains_231_matches_brute_force():
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            assert contains_231(p) == _contains_231_brute(p)


# --- t-stack-sortability ---------------------------------------------------


def test_t_sortable_examples():
    assert is_t_stack_sortable((5, 4, 3, 2, 1, 6), 1)
    assert is_t_stack_sortable((1, 2, 3), 0)
    assert not is_t_stack_sortable((2, 3, 1), 1)
    assert is_t_stack_sortable((2, 3, 1), 2)


def test_t_sortable_rejects_bad_input():
    with pytest.raises(ValueError):
        is_t_stack_sortable((2, 2), 1)
    with pytest.raises(ValueError):
        is_t_stack_sortable((1, 2), -1)
    for n in (0, 3):  # n = 0 too, where no pass runs
        with pytest.raises(ValueError, match="t must be nonnegative"):
            count_t_stack_sortable(n, -1)


def test_t_sortable_stops_once_increasing(monkeypatch):
    # Every permutation of length n is (n - 1)-stack-sortable, so a huge t
    # runs at most n - 1 passes per permutation.
    calls = []
    real_sort_word = analysis_module.sort_word

    def counting_sort_word(word):
        calls.append(word)
        if len(calls) > 2 * factorial(3):
            raise AssertionError("more than (n - 1) * n! passes")
        return real_sort_word(word)

    monkeypatch.setattr(analysis_module, "sort_word", counting_sort_word)
    assert count_t_stack_sortable(3, 10**9) == 6


def test_knuth_equivalence():
    assert _check_knuth_catalan() == "one-pass sortable == 231-avoiding == Catalan, n <= 7"


def test_monotone_in_t():
    assert _check_monotone() == "t-sortable implies (t+1)-sortable, n <= 6"


@pytest.mark.parametrize("wrong", [lambda w: tuple(reversed(w)), lambda w: (*w[1:], *w[:1])], ids=["reversal", "rotation"])
@pytest.mark.parametrize("everywhere", [False, True], ids=["analysis", "both"])
def test_monotone_check_fails_on_a_wrong_sort_word(monkeypatch, wrong, everywhere):
    # The check must catch a wrong pass in is_t_stack_sortable, and one that the check itself applies.
    monkeypatch.setattr(analysis_module, "sort_word", wrong)
    if everywhere:
        monkeypatch.setattr(verification_module, "sort_word", wrong)
    with pytest.raises(AssertionError):
        _check_monotone()


# --- counts ----------------------------------------------------------------


def test_catalan_counts():
    got = [count_t_stack_sortable(n, 1) for n in range(1, 8)]
    assert got == [1, 2, 5, 14, 42, 132, 429]
    assert got == [comb(2 * n, n) // (n + 1) for n in range(1, 8)]


def test_two_pass_counts():
    got = [count_t_stack_sortable(n, 2) for n in range(1, 8)]
    assert got == [1, 2, 6, 22, 91, 408, 1938]
    assert got == [
        2 * factorial(3 * n) // (factorial(n + 1) * factorial(2 * n + 1))
        for n in range(1, 8)
    ]


def test_spot_counts():
    assert count_t_stack_sortable(4, 1) == 14
    assert count_t_stack_sortable(4, 2) == 22
    assert count_t_stack_sortable(1, 1) == 1
    assert count_t_stack_sortable(0, 0) == count_t_stack_sortable(0, 3) == 1


# --- sortability predicates ------------------------------------------------


def test_direct_predicate_examples():
    assert is_sss_direct(parse_diagram("{1,4'|2,1'|3,4,2',3'}", 4))
    assert is_sss_direct(parse_diagram("{1,3,2',3'|2,1'}", 3))
    assert not is_sss_direct(
        parse_diagram("{1,2,3,4',5',6'|4,6,7,1',2',3'|5,8,9,7',8',9'}", 9)
    )


def test_structural_predicate_examples():
    assert is_sss_theorem(parse_diagram("{1,4'|2,1'|3,4,2',3'}", 4))
    assert not is_sss_theorem(
        parse_diagram("{1,2,3,4',5',6'|4,6,7,1',2',3'|5,8,9,7',8',9'}", 9)
    )
    # any non-propagating block fails condition 1
    assert not is_sss_theorem(parse_diagram("{1,2|1',2'}", 2))
    # unequal block sides fail condition 2
    assert not is_sss_theorem(canonicalize([{1, 2, -1}, {3, -2, -3}], 3))
    # scattered bottom indices fail condition 3
    assert not is_sss_theorem(canonicalize([{1, -1, -3}, {2, 3, -2}], 3))


def test_structural_test_stops_at_first_broken_step(monkeypatch):
    calls, planted = [], []
    real_broken, real_plant = sorting_module._broken, sorting_module._plant

    def counting_broken(chosen, *factors):
        calls.append(chosen[3])
        return real_broken(chosen, *factors)

    monkeypatch.setattr(sorting_module, "_broken", counting_broken)
    monkeypatch.setattr(sorting_module, "_plant", lambda tree: planted.append(len(tree[0])) or real_plant(tree))
    # The first split chooses {2,3'} and puts {1,2'} in L and {3,1'} in R: broken at once.
    assert not is_sss_theorem(embed_permutation((2, 3, 1)))
    assert calls == [(0b10, 0b100)]
    # A stretched identity of order 64 on 16 consecutive intervals: its tops are
    # disjoint and its stack image rises, so no split is made, let alone tested.
    cuts = [0, *sorted(random.Random(7).sample(range(1, 64), 15)), 64]
    bottoms = [((1 << (hi - lo)) - 1) << lo for lo, hi in zip(cuts, cuts[1:])]
    calls.clear()
    planted.clear()
    assert is_sss_theorem(PartitionDiagram(64, [(b, b) for b in bottoms]))
    assert calls == [] and planted == []
    # The same bottoms with the top intervals of blocks 4, 5, 6 in the order 5, 6, 4:
    # the stack image falls, so the piece is planted and split step by step, 15
    # down to 7 unbroken and 6 broken, with 5 and 4 on its two sides.
    order = [0, 1, 2, 3, 5, 6, 4, *range(7, 16)]
    tops, lo = [0] * 16, 0
    for j in order:
        width = bottoms[j].bit_count()
        tops[j], lo = ((1 << width) - 1) << lo, lo + width
    d = PartitionDiagram(64, list(zip(tops, bottoms)))
    calls.clear()
    planted.clear()
    reason = _structural_failure(d)
    assert reason == structural_failure_by_definition(d) == "split step 10: factor order broken"
    assert len(calls) == 10 and planted == [16]


def test_structural_test_peels_blocks_that_overlap_every_other(monkeypatch):
    # Top intervals (1,17) (2,20) (3,18) (7,7) (12,16) (19,19).  The first split,
    # at {19,20'}, puts {2,20,18',19'} in the middle and the other four on the left.
    # The left piece's tops share no point, but it peels twice, at (3,18) and then
    # (1,17), and leaves (7,7) and (12,16), disjoint and in order: one plant in all.
    planted = []
    real_plant = sorting_module._plant
    monkeypatch.setattr(sorting_module, "_plant", lambda tree: planted.append(len(tree[0])) or real_plant(tree))
    d = parse_diagram(
        "{1,4,5,13,15,17,5',6',7',8',9',10'|2,20,18',19'|3,6,8,9,10,11,18,11',12',13',14',15',16',17'"
        "|7,4'|12,14,16,1',2',3'|19,20'}",
        20,
    )
    assert _structural_failure(d) is None is structural_failure_by_definition(d)
    assert planted == [6]


def test_structural_failure_on_chains():
    # Stretched chains in both directions, as they are and with a cluster of
    # several blocks planted at the leaf, in the middle and at the root of the
    # chain (a stretched identity's root is its last block).
    rng = random.Random(15)
    sizes = [rng.randint(1, 3) for _ in range(120)]
    reasons = set()
    for reverse in (False, True):
        for scramble in (None, (0, 8), (56, 64), (112, 120)):
            d = stretched_chain(rng, sizes, reverse, scramble)
            reasons.add(reason := _structural_failure(d))
            assert reason == structural_failure_by_definition(d)
            assert (reason is None) == is_sss_direct(d)
    assert None in reasons and len(reasons) > 3
    # A stretched identity of 1000 blocks sorts to itself.
    d = stretched_chain(rng, [rng.randint(1, 3) for _ in range(1000)], False, None)
    assert _structural_failure(d) is None and sort_diagram(d) == d


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 for chains of 1000 and 2000")
def test_structural_failure_on_long_chains_matches_reference():
    # The reference recurses once per chained split.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        rng = random.Random(16)
        for d in (
            embed_permutation(range(2000, 0, -1)),
            embed_permutation(range(1, 2001)),
            stretched_chain(rng, [rng.randint(1, 3) for _ in range(1000)], False, None),
        ):
            assert _structural_failure(d) == structural_failure_by_definition(d) is None
    finally:
        sys.setrecursionlimit(limit)


def test_predicates_agree_exhaustively():
    assert _check_predicates_agree(deep=False) == "4361 diagrams, n <= 4"


def test_predicates_agree_on_structural_candidates():
    rng = random.Random(64)
    verdicts = {"scatter": set(), "avoid": set(), "swap": set()}
    for n in range(4, 65, 4):
        for mode, seen in verdicts.items():
            for _ in range(3):
                d = structural_candidate(rng, n, mode)
                direct = is_sss_direct(d)
                assert is_sss_theorem(d) == direct
                seen.add(direct)
    assert verdicts["avoid"] == {True}
    assert verdicts["scatter"] == verdicts["swap"] == {True, False}


def test_structural_failure_matches_reference():
    # The code compares the sums of each factor's bottom masks, which are its
    # bottom nodes only because the masks are disjoint; the reference takes
    # the min and max of the factor's bottom nodes.
    for n in range(5):
        for d in enumerate_diagrams(n):
            assert _structural_failure(d) == structural_failure_by_definition(d), format_diagram(d)
    rng = random.Random(5)
    steps = set()
    for mode in ("scatter", "avoid", "swap"):
        for n in range(5, 65):
            d = structural_candidate(rng, n, mode)
            reason = _structural_failure(d)
            assert reason == structural_failure_by_definition(d), format_diagram(d)
            steps.add(reason and int(reason.split()[2][:-1]))
    assert {None, 1} < steps and max(steps - {None}) > 2  # later steps break too


def test_structural_failure_counts_the_steps_of_a_common_point_piece():
    # Step 2 splits the middle group {1,7,1',2'}, a piece whose top intervals share
    # a point; the plain sort emits such a piece by one sort, but it is still a step.
    d = parse_diagram("{1,7,1',2'|2,7'|3,5'|4,6,3',4'|5,6'}", 7)
    reason = "split step 3: factor order broken"
    assert _structural_failure(d) == structural_failure_by_definition(d) == reason
    assert len(sort_diagram_traced(d)[1]) == 5


def test_restriction_to_permutations():
    assert _check_restriction() == "153 permutations, n <= 5"


# --- census ----------------------------------------------------------------


def test_census_order_zero_and_one():
    row0 = census_stretch_sortable(0)
    assert (row0.total, row0.sortable) == (1, SORTABLE_COUNTS[0])
    row1 = census_stretch_sortable(1)
    assert (row1.total, row1.sortable) == (2, SORTABLE_COUNTS[1])


def test_census_pinned_counts():
    for n in range(5):
        row = census_stretch_sortable(n, check=True)
        assert isinstance(row, CensusRow)
        assert row.sortable == SORTABLE_COUNTS[n]
        assert 0 <= row.sortable <= row.total
        pruned = census_stretch_sortable(n)
        assert row._replace(elapsed=0) == pruned._replace(elapsed=0)  # check changes only elapsed
        assert pruned.candidates == FUBINI[n]


def _sorted(word):
    return list(word) == sorted(word)


def test_census_counter_matches_direct_sort_per_word():
    assert _check_census_counter(deep=False) == (
        "recursion = word map = direct sort, n <= 5; 634 packed words"
    )


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 for order 6")
def test_census_counter_matches_direct_sort_per_word_deep():
    assert _check_census_counter(deep=True) == (
        "recursion = word map = direct sort, n <= 6; 5317 packed words"
    )


def test_census_recursion_matches_word_map():
    memo = {}
    count = analysis_module._census_table()
    for n in range(8):
        counted = sum(_sorted(_sort_packed(w, memo)) for w in _packed_words(n))
        assert count(n)[0] == counted == SORTABLE_COUNTS[n]


def test_census_recursion_states_at_order_20():
    # The memo states pin which (m, x, y) the recursion reaches, not only its count.
    assert analysis_module._census_table()(20) == (SORTABLE_COUNTS[20], 727)


def test_census_table_reads_any_order_as_a_fresh_fill():
    # One table grows to order 20 on its first read; later reads of lower
    # orders return the rows kept on the way, states included.
    count = analysis_module._census_table()
    for n in (20, 3, 11, 0, 17):
        assert count(n) == analysis_module._census_table()(n), n


def test_census_recursion_sums_left_zones_only_for_filled_right_zones():
    # A left zone summed for an empty right filling changes no count or state
    # seen so far, only the work, so the rule is checked on what h asks for:
    # the prefix P(x, u, b) where the zones are apart and left(x, lz, b) where
    # they share a position.  h looks each up in its memo and calls it on a
    # miss, so both the lookups and the calls must come with a filling.
    weights: dict = {"prefix": [], "left": [], "prefixes": [], "lefts": []}

    def spy(frame, event, arg):
        if event == "call" and frame.f_code.co_name in weights and frame.f_back.f_code.co_name == "h":
            weights[frame.f_code.co_name].append(frame.f_back.f_locals["wb"])
        elif event == "c_call" and frame.f_code.co_name == "h" and getattr(arg, "__name__", None) == "get":
            env = frame.f_locals
            for name in ("prefixes", "lefts"):
                if arg.__self__ is env[name]:
                    weights[name].append(env["wb"])

    outer = sys.getprofile()
    sys.setprofile(spy)
    try:
        analysis_module._census_table()(12)
    finally:
        sys.setprofile(outer)
    assert all(found and all(found) for found in weights.values()), weights


# Orders 21-30 as tabulated in the README (computed, not from paper).
DEEP_SORTABLE_COUNTS = {
    21: 2809877437321679489, 22: 44505264063765944207, 23: 736184750379296597894,
    24: 12700004064060793807006, 25: 228177039388495305173100,
    26: 4264022710147547169633598, 27: 82774046842175258038652156,
    28: 1667105686972086228111288318, 29: 34794727140547573710296362444,
    30: 751713722661699704924785534356,
}


def test_census_recursion_states_at_order_30():
    assert analysis_module._census_table()(30) == (DEEP_SORTABLE_COUNTS[30], 2377)


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 for orders 21-30")
def test_census_recursion_deep_orders():
    count = analysis_module._census_table()
    for n, want in DEEP_SORTABLE_COUNTS.items():
        assert count(n)[0] == want, n


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 for orders 40 and 50")
def test_census_recursion_orders_40_and_50():
    # Computed, not from paper.
    assert analysis_module._census_table()(40) == (89516199791137300240698521866048608604409062, 5552)
    assert analysis_module._census_table()(50) == (
        133464361826818098920104715436087439905873732776285413819172, 10752
    )


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 for orders 0-30")
def test_census_one_fill_equals_per_order_calls():
    count = analysis_module._census_table()
    assert [count(n) for n in range(31)] == [analysis_module._census_table()(n) for n in range(31)]


def test_word_map_runs_no_sort_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the word map ran the sort kernel")

    monkeypatch.setattr(sorting_module, "_walk", refuse)
    memo = {}
    for n in range(7):
        assert sum(_sorted(_sort_packed(w, memo)) for w in _packed_words(n)) == SORTABLE_COUNTS[n]
    with pytest.raises(AssertionError, match="ran the sort kernel"):
        sort_diagram(embed_permutation((2, 1)))  # the patch is in force


def test_census_counter_compares_whole_images(monkeypatch):
    # A sort that sends the candidate of 231 to that of 312, not 213: unsortable either way.
    target, wrong = embed_permutation((2, 3, 1)), embed_permutation((3, 1, 2))
    real = sort_diagram

    def wrong_sort(d):
        return wrong if d == target else real(d)

    monkeypatch.setattr(verification_module, "sort_diagram", wrong_sort)
    monkeypatch.setattr(analysis_module, "sort_diagram", wrong_sort)
    assert not is_sss_direct(target) and not is_stretch_of_identity(real(target))
    with pytest.raises(AssertionError, match=r"sort image wrong on the candidate of word \(2, 3, 1\)"):
        _check_census_counter(deep=False)


def test_import_leaves_the_oracles_unimported():
    env = {**os.environ, "PYTHONPATH": str(os.path.dirname(os.path.dirname(diagramsort.__file__)))}
    code = "import sys, diagramsort; print('diagramsort.verification' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_package_exports_each_layers_own_names():
    layers = [diagramsort.core, diagramsort.sorting, diagramsort.stretch, diagramsort.analysis]
    names = diagramsort.__all__
    assert names == sorted(set(names))
    assert set(names) == {name for layer in layers for name in layer.__all__}
    for layer in layers:
        for name in layer.__all__:
            assert getattr(diagramsort, name) is getattr(layer, name), name


def test_only_sorting_reads_the_walk():
    # Walk items, trees and pieces are private to sorting: the other layers take its
    # public names and the structural test's shape pass and reason, nothing else.
    allowed = {*sorting_module.__all__, "_candidate_items", "_structural_failure"}
    package = Path(sorting_module.__file__).parent
    for module in ("analysis", "cli", "verification"):
        tree = ast.parse((package / f"{module}.py").read_text())
        used, aliases = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "sorting":
                    used |= {alias.name for alias in node.names}
                elif node.module is None:
                    aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "sorting"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add(node.attr)
        assert used and used <= allowed, (module, sorted(used - allowed))


def test_census_builds_no_diagram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the census built a diagram or started a pool")

    monkeypatch.setattr(PartitionDiagram, "__init__", refuse)
    monkeypatch.setattr(analysis_module, "sort_diagram", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for n, want in SORTABLE_COUNTS.items():
        row = census_stretch_sortable(n, jobs=2)
        assert (row.sortable, row.candidates) == (want, analysis_module._fubini(n))
        assert row.states > 0


def test_census_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(analysis_module, "POOL_MIN_CANDIDATES", 0)  # start real workers at every order
    for n in (2, 3):
        plain = census_stretch_sortable(n)._replace(elapsed=0)
        serial = census_stretch_sortable(n, check=True)
        parallel = census_stretch_sortable(n, check=True, jobs=2)
        assert serial._replace(elapsed=0) == parallel._replace(elapsed=0) == plain


def _structural(blocks):
    """The first three structural conditions: propagating, equal sides, interval bottom."""
    for t, b in blocks:
        if not (t and b) or t.bit_count() != b.bit_count():
            return False
        low = b & -b
        if (b + low) & b:
            return False
    return True


def _candidate_diagrams(n):
    return [_word_diagram(w) for w in _packed_words(n)]


def test_candidates_are_fubini_many_and_structural():
    for n, want in enumerate(FUBINI):
        found = _candidate_diagrams(n)
        assert len(found) == len(set(found)) == want
        assert all(_structural(d.blocks) for d in found)


def test_candidates_equal_filtered_enumeration():
    for n in range(5):
        filtered = {d for d in enumerate_diagrams(n) if _structural(d.blocks)}
        assert set(_candidate_diagrams(n)) == filtered


def _drop_identity_word(real, order):
    def packed_words(n):
        return (w for w in real(n) if w != tuple(range(1, order + 1)))

    return packed_words


def _drop_first_diagram(real):
    def enumerate_diagrams(order, prefix=()):
        it = real(order, prefix)
        if prefix and not any(prefix):  # the one all-zero chunk, at any prefix depth
            next(it)
        return it

    return enumerate_diagrams


@pytest.mark.parametrize("name, patch", [("enumerate_diagrams", _drop_first_diagram)])
def test_census_check_catches_a_missing_diagram(monkeypatch, name, patch):
    monkeypatch.setattr(analysis_module, name, patch(getattr(analysis_module, name)))
    census_stretch_sortable(3)  # the census alone does not notice
    with pytest.raises(VerificationError):
        census_stretch_sortable(3, check=True)


def test_census_counter_catches_a_missing_candidate(monkeypatch):
    monkeypatch.setattr(verification_module, "_packed_words", _drop_identity_word(_packed_words, 4))
    with pytest.raises(AssertionError, match=r"recursion at n=4: 56 != 55 from the word map"):
        _check_census_counter(deep=False)


def test_census_regression_checks_totals_independently(monkeypatch):
    # A wrong Bell triangle, in the census and in the check's own module alike.
    real = analysis_module._bell
    wrong = lambda m: real(m) + (m == 6)  # noqa: E731
    monkeypatch.setattr(analysis_module, "_bell", wrong)
    monkeypatch.setattr(verification_module, "_bell", wrong)
    with pytest.raises(AssertionError, match=r"census total at n=3 is not Bell\(2n\)"):
        _check_census_regression()


def test_census_check_catches_a_miscounting_shape_test(monkeypatch):
    # A shape test that also faults one unsortable candidate: both predicates still agree on it.
    target = embed_permutation((2, 3, 1))
    assert not is_sss_direct(target)
    real = sorting_module._candidate_items

    def candidate_items(blocks):
        return "non-interval bottom" if blocks == target.blocks else real(blocks)

    # sorting owns the shape test: the patch reaches the oracle's count and is_sss_theorem alike.
    monkeypatch.setattr(sorting_module, "_candidate_items", candidate_items)
    assert census_stretch_sortable(3).sortable == SORTABLE_COUNTS[3]  # the census alone does not notice
    with pytest.raises(VerificationError, match=r"order 3 candidates, Fubini\(n\): 12 != 13"):
        census_stretch_sortable(3, check=True)


def test_census_check_names_a_predicate_disagreement(monkeypatch, capsys):
    target = embed_permutation((2, 3, 1))
    real = is_sss_theorem
    monkeypatch.setattr(analysis_module, "is_sss_theorem", lambda d: real(d) != (d == target))
    message = f"sortability predicates disagree on {format_diagram(target)} at order 3"
    with pytest.raises(VerificationError, match=re.escape(message)):
        census_stretch_sortable(3, check=True)
    assert run(["census", "--n", "3", "--check"]) == 2
    assert capsys.readouterr().err.endswith(f"\nverification failure: {message}\n")


def _drop_one_survivor(real):
    def table():
        count = real()
        return lambda n: (count(n)[0] - (n == 3), count(n)[1])

    return table


def _add_one_survivor(real):
    def table():
        count = real()
        return lambda n: (count(n)[0] + (n == 3), count(n)[1])

    return table


@pytest.mark.parametrize("patch", [_drop_one_survivor, _add_one_survivor])
def test_census_check_catches_a_miscounting_counter(monkeypatch, patch):
    monkeypatch.setattr(analysis_module, "_census_table", patch(analysis_module._census_table))
    row = census_stretch_sortable(3)  # the census alone does not notice
    assert row.sortable != SORTABLE_COUNTS[3]
    with pytest.raises(VerificationError, match="sortable counted, scanned"):
        census_stretch_sortable(3, check=True)


def test_census_pool_only_above_threshold(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(analysis_module.os, "cpu_count", lambda: 2)
    assert [analysis_module._fubini(n) for n in range(9)] == [*FUBINI, 47293, 545835]
    # The Bell(2n) oracle pools from order 5; the census itself never does.
    assert analysis_module._bell(8) <= analysis_module.POOL_MIN_CANDIDATES < analysis_module._bell(10)
    census_stretch_sortable(12, jobs=2)
    census_stretch_sortable(4, check=True, jobs=2)  # the oracle sorts Bell(8) = 4140
    assert started == []
    # Order 5 scanned as empty chunks: only how many workers start matters here.
    monkeypatch.setattr(analysis_module, "_scan", lambda args: (0, 0, 0))
    for cpus, jobs, workers in [(2, 2, [2]), (4, 10**9, [4]), (4, 3, [3]), (None, 8, [])]:
        monkeypatch.setattr(analysis_module.os, "cpu_count", lambda: cpus)
        started.clear()
        with pytest.raises(VerificationError):
            census_stretch_sortable(5, check=True, jobs=jobs)
        assert started == workers  # no more than the CPUs; one CPU runs serially
    # No more workers than chunks.
    monkeypatch.setattr(analysis_module.os, "cpu_count", lambda: 4)
    started.clear()
    diagrams = analysis_module.POOL_MIN_CANDIDATES + 1
    assert analysis_module._map_chunks(abs, [-1, -2], 8, diagrams) == [1, 2]
    assert started == [2]


def test_census_rejects_negative_order():
    with pytest.raises(ValueError):
        census_stretch_sortable(-1)
