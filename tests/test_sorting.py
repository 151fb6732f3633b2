"""Word sorting, diagram decomposition, assembly, and the lift property."""

from __future__ import annotations

import os
import random
import sys

import pytest
from hypothesis import given

import diagramsort.core as core_module
import diagramsort.sorting as sorting_module
from conftest import diagrams, random_diagram
from reference import (
    chain_diagram,
    cluster_chain_diagram,
    common_point_diagram,
    nested_top_candidate,
    one_item_cluster_diagram,
    sort_diagram_by_definition,
    sparse_diagram,
    stretched_chain,
    structural_candidate,
    structural_failure_by_definition,
    trace_by_definition,
    widened_permutation,
)
from diagramsort.analysis import is_sss_theorem
from diagramsort.core import (
    PartitionDiagram,
    _mask,
    _signed,
    canonicalize,
    embed_permutation,
    enumerate_diagrams,
    format_diagram,
    identity_diagram,
    parse_diagram,
)
from diagramsort.sorting import (
    _structural_failure,
    decompose,
    odot_assemble,
    sort_diagram,
    sort_diagram_traced,
    sort_word,
)
from diagramsort.verification import (
    _check_lift_of_word_sort,
    _check_sort_structure,
    _check_word_sort_oracle,
    _signature,
)

EX5_IN = "{1,2|3,5,7,2',4',6'|4,3'|6,7'|8|1'|5',8'}"
EX5_OUT = "{1,3'|2,3,4,2',4',6'|5,7'|6,7|8|1'|5',8'}"
EX18_IN = "{1,2,3,4',5',6'|4,6,7,1',2',3'|5,8,9,7',8',9'}"
EX18_OUT = "{1,2,3,4',5',6'|4,5,6,1',2',3'|7,8,9,7',8',9'}"


def _non_singleton_sets(d):
    return {block for block in d.block_sets() if len(block) > 1}


def _non_singletons(d):
    """The non-singleton blocks in canonical order, as a trace event lists a factor."""
    return tuple(blk for blk, nodes in zip(d.blocks, d.block_sets()) if len(nodes) > 1)


def _pair(tops, bottoms):
    """A block's (top_mask, bottom_mask) pair from its top and bottom indices."""
    return _mask(tops), _mask(bottoms)


def _tagged(block, left, middles, right):
    """A split in ``trace_by_definition``'s form: C's bottoms, and each other block's factor, keyed by its node set."""
    factors = [("L", 0, left), *(("M", j, m) for j, m in enumerate(middles, 1)), ("R", 0, right)]
    return frozenset(-x for x in _signed(block) if x < 0), {_signed(blk): (kind, group) for kind, group, f in factors for blk in f}


# --- sort_word -------------------------------------------------------------


def test_sort_word_examples():
    assert sort_word((5, 4, 3, 2, 1, 6)) == (1, 2, 3, 4, 5, 6)
    assert sort_word(()) == ()
    assert sort_word((2, 3, 1)) == (2, 1, 3)


def test_sort_word_rejects_repeats():
    with pytest.raises(ValueError):
        sort_word((1, 2, 1))


def test_sort_word_keeps_letter_set():
    assert sort_word((9, 2, 7)) == (2, 7, 9)


def test_sort_word_matches_recursive_definition():
    assert _check_word_sort_oracle() == "5914 words against the recursive definition"


# --- decompose -------------------------------------------------------------


def test_decompose_eight_node_example():
    dec = decompose(parse_diagram(EX5_IN, 8))
    assert dec.block == _pair([6], [7])
    assert _non_singleton_sets(dec.left) == {frozenset({1, 2}), frozenset({4, -3})}
    assert len(dec.middles) == 1
    assert _non_singleton_sets(dec.middles[0]) == {
        frozenset({3, 5, 7, -2, -4, -6}),
        frozenset({-5, -8}),
    }
    assert _non_singleton_sets(dec.right) == set()
    assert dec.padded_block == canonicalize([{6, -7}], 8)


def test_decompose_embedded_231():
    dec = decompose(embed_permutation((2, 3, 1)))
    assert dec.block == _pair([2], [3])
    assert _non_singleton_sets(dec.left) == {frozenset({1, -2})}
    assert _non_singleton_sets(dec.right) == {frozenset({3, -1})}
    assert dec.middles == ()


def test_decompose_identity_one():
    dec = decompose(identity_diagram(1))
    assert dec.block == _pair([1], [1])
    assert _non_singleton_sets(dec.left) == set()
    assert _non_singleton_sets(dec.right) == set()
    assert dec.middles == ()


def test_decompose_requires_propagating_block():
    with pytest.raises(ValueError):
        decompose(parse_diagram("{}", 2))


@given(diagrams(max_order=4, min_order=1))
def test_decompose_partitions_the_non_singleton_blocks(d):
    if d.propagation_number() == 0:
        return
    dec = decompose(d)
    pieces = [dec.left, *dec.middles, dec.right]
    assert all(p.order == d.order for p in pieces)
    scattered = [s for p in pieces for s in _non_singleton_sets(p)]
    assert len(scattered) == len(set(scattered))
    assert set(scattered) | {_signed(dec.block)} == _non_singleton_sets(d)


def test_decompose_matches_reference():
    # The first split step of the slow reference: the chosen block's bottoms
    # and every other non-singleton block's factor, middle groups in order.
    # The traced sort's first event holds the same parts.
    def check(d):
        if d.propagation_number() == 0:
            return
        dec = decompose(d)
        parts = (dec.block, _non_singletons(dec.left), tuple(map(_non_singletons, dec.middles)), _non_singletons(dec.right))
        assert _tagged(*parts) == trace_by_definition(d)[0], format_diagram(d)
        assert sort_diagram_traced(d)[1][0] == parts, format_diagram(d)
        assert dec.padded_block == canonicalize([_signed(dec.block)], d.order)

    for n in range(5):
        for d in enumerate_diagrams(n):
            check(d)
    rng = random.Random(23)
    for _ in range(300):
        check(sparse_diagram(rng, rng.randint(5, 24), rng.randint(2, 12)))
    for base in ("decreasing", "increasing"):
        for plant in (None, "root", "middle", "leaf"):
            check(chain_diagram(rng, 60, base, plant))
    for _ in range(75):
        check(common_point_diagram(rng, rng.randint(5, 40)))


# --- odot_assemble ---------------------------------------------------------


def test_assemble_eight_node_factor_list():
    n = 8
    factors = [
        canonicalize([{1, 2}], n),
        canonicalize([], n),
        canonicalize([], n),
        canonicalize([{4, -3}], n),
        canonicalize([], n),
        canonicalize([{-5, -8}], n),
        canonicalize([], n),
        canonicalize([{3, 5, 7, -2, -4, -6}], n),
        canonicalize([], n),
        canonicalize([{6, -7}], n),
    ]
    assert format_diagram(odot_assemble(factors, n)) == EX5_OUT


def test_assemble_single_factor_gets_fresh_top_labels():
    factor = canonicalize([{3, -2}], 3)
    assert odot_assemble([factor], 3) == canonicalize([{1, -2}], 3)
    trivial = canonicalize([{1, -1}], 1)
    assert odot_assemble([trivial], 1) == trivial


def test_assemble_bottom_only_factor():
    got = odot_assemble([canonicalize([{-5, -8}], 8)], 8)
    assert got == canonicalize([{-5, -8}], 8)


def test_assemble_rejects_bottom_collision():
    b = canonicalize([{1, -1}], 2)
    with pytest.raises(ValueError, match="blocks overlap"):
        odot_assemble([b, b], 2)


def test_assemble_rejects_multi_propagating_factor():
    with pytest.raises(ValueError):
        odot_assemble([identity_diagram(2)], 2)
    with pytest.raises(ValueError):
        odot_assemble([canonicalize([{1, -1}, {2, 3}], 3)], 3)


def test_assemble_rejects_top_overflow():
    f1 = canonicalize([{1, 2, -1}], 2)
    f2 = canonicalize([{1, 2, -2}], 2)
    with pytest.raises(ValueError, match="out of range"):
        odot_assemble([f1, f2], 2)


def test_assemble_pads_the_bottoms_no_factor_holds():
    # Bottoms 2', 3' sit in a bottom-only factor; 5' is in no factor's non-singleton block.
    n = 6
    factors = [canonicalize(blocks, n) for blocks in ([{2, 3, -4}], [{1, 6}], [{-2, -3}], [{5, -1, -6}])]
    assert format_diagram(odot_assemble(factors, n)) == "{1,2,4'|3,1',6'|4,5|6|2',3'|5'}"
    assert odot_assemble([], 3) == canonicalize([], 3)
    assert odot_assemble([canonicalize([{1, 2}], 3)], 3) == canonicalize([{1, 2}], 3)
    # Seeded one-block factors leaving bottoms uncovered, against relabeling signed-node sets.
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(2, 12)
        free = rng.sample(range(1, n + 1), n)
        blocks = []
        while free and rng.random() < 0.8:
            bottoms = {-free.pop() for _ in range(rng.randint(0, min(2, len(free))))}
            block = bottoms | set(rng.sample(range(1, n + 1), rng.randint(0 if bottoms else 2, 2)))
            if len(block) > 1:
                blocks.append(block)
        label, expected = 1, []
        for block in sorted(blocks, key=lambda blk: not (min(blk) < 0 < max(blk))):  # propagating first, stable
            width = sum(x > 0 for x in block)
            expected.append({x for x in block if x < 0} | set(range(label, label + width)))
            label += width
        if label <= n + 1:
            assert odot_assemble([canonicalize([blk], n) for blk in blocks], n) == canonicalize(expected, n)


def test_assemble_rejects_order_mismatch():
    with pytest.raises(ValueError):
        odot_assemble([identity_diagram(1)], 2)


def test_assemble_rejections_name_their_fault():
    shape = "factor must be non-propagating or one propagating block plus singletons"
    for factors, order, message in [
        ([identity_diagram(1)], 2, "factor order mismatch"),
        ([identity_diagram(2)], 2, shape),  # two propagating blocks
        ([canonicalize([{1, -1}, {2, 3}], 3)], 3, shape),  # a propagating and a top-only block
        ([canonicalize([{1, -1}, {-2, -3}], 3)], 3, shape),  # a propagating and a bottom-only block
    ]:
        with pytest.raises(ValueError) as err:
            odot_assemble(factors, order)
        assert str(err.value) == message


# --- sort_diagram ----------------------------------------------------------


def test_sort_eight_node_example():
    assert format_diagram(sort_diagram(parse_diagram(EX5_IN, 8))) == EX5_OUT


def test_sort_embedded_312_gives_identity():
    assert sort_diagram(embed_permutation((3, 1, 2))) == identity_diagram(3)


def test_sort_four_node_example():
    d = parse_diagram("{1,4'|2,1'|3,4,2',3'}", 4)
    assert format_diagram(sort_diagram(d)) == "{1,1'|2,3,2',3'|4,4'}"


def test_sort_nine_node_example():
    assert format_diagram(sort_diagram(parse_diagram(EX18_IN, 9))) == EX18_OUT


def test_sort_keeps_middle_groups_in_order():
    # Two top-only middle groups of different sizes: the left one is relabeled first.
    d = parse_diagram("{1,8,8'|2,3|4,5,6}", 8)
    assert format_diagram(sort_diagram(d)) == "{1,2,8'|3,4|5,6,7|8|1'|2'|3'|4'|5'|6'|7'}"
    assert sort_diagram(d) == sort_diagram_by_definition(d)


def test_sort_fixes_identity():
    for n in range(6):
        assert sort_diagram(identity_diagram(n)) == identity_diagram(n)


def test_sort_fixes_non_propagating_diagrams():
    # sort-structure also requires every non-propagating diagram to be fixed.
    assert _check_sort_structure() == "4361 diagrams, n <= 4"


def test_lift_agrees_with_word_sort():
    assert _check_lift_of_word_sort() == "873 permutations, n <= 6"


def test_sort_structure_exhaustive_small():
    assert _check_sort_structure() == "4361 diagrams, n <= 4"


def test_sort_matches_reference_exhaustive():
    for n in range(5):
        for d in enumerate_diagrams(n):
            assert sort_diagram(d) == sort_diagram_by_definition(d), format_diagram(d)


@pytest.mark.skipif(
    os.environ.get("DIAGRAMSORT_DEEP") != "1",
    reason="set DIAGRAMSORT_DEEP=1 for the order-5 sweep",
)
def test_sort_matches_reference_order_5():
    for d in enumerate_diagrams(5):
        assert sort_diagram(d) == sort_diagram_by_definition(d), format_diagram(d)


def test_sort_matches_reference_seeded_larger_orders():
    rng = random.Random(11)
    for _ in range(150):
        d = random_diagram(rng, rng.randint(5, 24))
        assert sort_diagram(d) == sort_diagram_by_definition(d), format_diagram(d)
    for mode in ("scatter", "avoid", "swap"):
        for n in range(5, 41, 5):
            d = structural_candidate(rng, n, mode)
            assert sort_diagram(d) == sort_diagram_by_definition(d), format_diagram(d)
    # Shaped like the benchmark's large sorts: about 2 sqrt(n) blocks, each
    # spanning most of both rows, so middle groups split into middle groups.
    for n in (64, 128, 256):
        for _ in range(2):
            d = sparse_diagram(rng, n, round(2 * n**0.5))
            assert sort_diagram(d) == sort_diagram_by_definition(d), format_diagram(d)
    word = list(range(1, 201))
    rng.shuffle(word)
    for w in (word, range(200, 0, -1)):
        d = embed_permutation(w)
        assert sort_diagram(d) == sort_diagram_by_definition(d)


def test_sort_builds_only_the_result_diagram(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return PartitionDiagram(*args)

    monkeypatch.setattr(sorting_module, "PartitionDiagram", counting)
    rng = random.Random(5)
    for d in [parse_diagram(EX5_IN, 8), embed_permutation(range(40, 0, -1)), random_diagram(rng, 32)]:
        built.clear()
        sort_diagram(d)
        assert len(built) == 1


# --- chains: the shapes the walk branches on ------------------------------------


def _count_scans(monkeypatch) -> list:
    """Record every scan of a cluster of several blocks."""
    scans = []
    real_scan = sorting_module._scan_cluster

    def counting_scan(*args):
        scans.append(args)
        return real_scan(*args)

    monkeypatch.setattr(sorting_module, "_scan_cluster", counting_scan)
    return scans


def _count_plants(monkeypatch) -> list:
    """Record the size of every tree planted."""
    planted = []
    real_plant = sorting_module._plant
    monkeypatch.setattr(sorting_module, "_plant", lambda tree: planted.append(len(tree[0])) or real_plant(tree))
    return planted


def test_permutation_chains_never_scan_a_cluster(monkeypatch):
    scans = _count_scans(monkeypatch)
    for n in (300, 2000):
        for word in (tuple(range(n, 0, -1)), tuple(range(1, n + 1))):
            d = embed_permutation(word)
            image = sort_diagram(d)
            assert image == embed_permutation(sort_word(word)) == identity_diagram(n)
            if n == 300:
                assert image == sort_diagram_by_definition(d)
                traced, trace = sort_diagram_traced(d)
                assert traced == image and len(trace) == n
    assert scans == []


def test_sort_on_planted_chains(monkeypatch):
    # One-block chains both ways with top-only and bottom-only blocks, and a
    # cluster of several blocks planted at the root, in the middle or at a leaf.
    scans = _count_scans(monkeypatch)
    rng = random.Random(15)
    for base in ("decreasing", "increasing"):
        for plant in (None, "root", "middle", "leaf"):
            scans.clear()
            d = chain_diagram(rng, 240, base, plant)
            image = sort_diagram(d)
            assert image == sort_diagram_by_definition(d), (base, plant)
            traced, trace = sort_diagram_traced(d)
            assert traced == image and len(trace) == d.propagation_number()
            assert bool(scans) == (plant is not None)
    # Stretched chains, with a cluster planted at the leaf, middle and root.
    sizes = [rng.randint(1, 3) for _ in range(120)]
    for reverse in (False, True):
        for scramble in (None, (0, 8), (56, 64), (112, 120)):
            d = stretched_chain(rng, sizes, reverse, scramble)
            assert sort_diagram(d) == sort_diagram_by_definition(d), (reverse, scramble)
    d = stretched_chain(rng, [rng.randint(1, 3) for _ in range(1000)], False, None)
    assert sort_diagram(d) == d


def test_one_block_chains_plant_each_item_once(monkeypatch):
    # A subtree is a range of its planted tree's items, so every walk that
    # splits a chain of one-block clusters plants all of its items in one
    # call; the plain sort stack-sorts the chain and the structural test reads
    # the stack's image, and neither plants anything.
    planted = _count_plants(monkeypatch)
    rng = random.Random(21)
    for d in (
        embed_permutation(range(1, 2001)),
        embed_permutation(range(2000, 0, -1)),
        stretched_chain(rng, [rng.randint(1, 3) for _ in range(1000)], False, None),
        stretched_chain(rng, [rng.randint(1, 3) for _ in range(300)], True, None),
    ):
        for walk in (sort_diagram, sort_diagram_traced, is_sss_theorem):
            planted.clear()
            walk(d)
            assert planted == ([d.propagation_number()] if walk is sort_diagram_traced else []), (walk.__name__, d.order)


def test_common_point_pieces_sort_without_a_scan(monkeypatch):
    # Every top interval holds top node 4; top-only, bottom-only and singleton blocks mixed in.
    d = parse_diagram("{1,7,2'|2,5,7',8'|3,8|4,1',3'|6|4',5'|6'}", 8)
    planted = _count_plants(monkeypatch)
    scans = _count_scans(monkeypatch)
    image = sort_diagram(d)
    assert scans == [] and planted == []
    # The walk emits the top-only {3,8}, then the propagating blocks by bottom mask;
    # the propagating blocks take the first top labels.
    assert image == parse_diagram("{1,2,2'|3,1',3'|4,5,7',8'|6,7|8|4',5'|6'}", 8)
    assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0]
    assert scans  # the traced sort splits step by step
    rng = random.Random(17)
    for n in range(5, 65):
        d = common_point_diagram(rng, n)
        scans.clear()
        planted.clear()
        image = sort_diagram(d)
        assert scans == [] and planted == []
        assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0], format_diagram(d)
    d = common_point_diagram(rng, 1000)
    assert sort_diagram(d) == sort_diagram_traced(d)[0]


def test_one_item_clusters_sort_in_post_order(monkeypatch):
    # Every top-overlap cluster holds one block: the plain sort emits the tree's
    # post-order by one pass through a stack, as the word sort does, and plants
    # nothing; the traced sort and the structural test plant the tree once.
    planted = _count_plants(monkeypatch)
    scans = _count_scans(monkeypatch)
    word = random.Random(26).sample(range(1, 1001), 1000)
    d = embed_permutation(word)
    assert sort_diagram(d) == embed_permutation(sort_word(word))
    assert planted == [] and scans == []
    for walk in (sort_diagram_traced, is_sss_theorem):
        planted.clear()
        walk(d)
        assert planted == [1000], walk.__name__
    # Top-only blocks take the first labels past the propagating ones, in sequence order.
    d = parse_diagram("{1,3,2'|2|4,5|6,1',4'|7,8,9|10,3'}", 10)
    image = parse_diagram("{1,2,2'|3,3'|4,1',4'|5,6|7,8,9|10|5'|6'|7'|8'|9'|10'}", 10)
    assert sort_diagram(d) == image == sort_diagram_by_definition(d)
    rng = random.Random(28)
    for n in (*range(1, 40), 120, 400):
        d = one_item_cluster_diagram(rng, n)
        planted.clear()
        image = sort_diagram(d)
        assert planted == []
        assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0], format_diagram(d)
    assert scans == []


def test_plain_sort_drops_the_stack_pass_at_an_overlap(monkeypatch):
    # A permutation with one block's tops widened to {p, q}: the stack pass runs
    # over the disjoint items before p + 1, is dropped there, and the piece is planted.
    planted = _count_plants(monkeypatch)
    rng = random.Random(29)
    pairs = [(198, 200), (1, 200)]
    for _ in range(38):
        p = rng.randint(1, 198)
        pairs.append((p, rng.randint(p + 2, 200)))
    for p, q in pairs:
        d = widened_permutation(rng, 200, p, q)
        planted.clear()
        image = sort_diagram(d)
        assert planted[:1] == [199], (p, q)
        assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0], (p, q)


def test_plain_sort_guard_keeps_images(monkeypatch):
    # A fresh piece runs the stack pass only when its first two top intervals
    # are disjoint.  Widened at p = 1, a permutation's first pair overlaps, so
    # the pass is skipped and the piece is planted whole, as when it is dropped.
    planted = _count_plants(monkeypatch)
    rng = random.Random(33)
    for q in range(3, 200, 7):
        d = widened_permutation(rng, 200, 1, q)
        planted.clear()
        image = sort_diagram(d)
        assert planted[:1] == [199], q
        assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0], q
    for n in range(2, 65):
        d = common_point_diagram(rng, n)
        planted.clear()
        image = sort_diagram(d)
        assert planted == []
        assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0], format_diagram(d)


def test_nested_top_candidates_match_reference(monkeypatch):
    # Three blocks whose tops span all later ones each split alone in the middle;
    # the stretched identity left has disjoint tops.  With three of its blocks
    # rotated it breaks k steps after the three nested blocks.
    groups, several, real_groups = [], 0, sorting_module._groups
    monkeypatch.setattr(sorting_module, "_groups", lambda mid: groups.append(len(found := real_groups(mid))) or found)
    rng = random.Random(32)
    for blocks in range(4, 40):
        for k in (None, 1, 2, 3):
            if k is not None and blocks - 3 < k + 2:
                continue
            d = nested_top_candidate(rng, blocks, 3, None if k is None else blocks - 5 - k)
            reason = _structural_failure(d)
            assert reason == structural_failure_by_definition(d), format_diagram(d)
            assert reason == (k and f"split step {3 + k}: factor order broken")
            image = sort_diagram(d)
            assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0]
            # Some blocks between lose their bottoms to bottom-only blocks; a
            # split at a nested block may then leave its middle in several groups.
            split = []
            for t, b in d.blocks:
                split += [(t, 0), (0, b)] if t & 0b111 == 0 and rng.random() < 0.3 else [(t, b)]
            d = PartitionDiagram(d.order, split)
            groups.clear()
            image = sort_diagram(d)
            several += max(groups, default=0) > 1
            assert image == sort_diagram_by_definition(d) == sort_diagram_traced(d)[0], format_diagram(d)
    assert several


def test_sort_on_cluster_chains(monkeypatch):
    # Each 4-block cluster sends two blocks into the long left subtree, which
    # is planted again with them: the walk's quadratic shape.
    scans = _count_scans(monkeypatch)
    d = cluster_chain_diagram(40)
    image = sort_diagram(d)
    assert len(scans) == 40
    traced, trace = sort_diagram_traced(d)
    assert image == traced == sort_diagram_by_definition(d)
    assert len(trace) == d.propagation_number() == 160
    assert _structural_failure(d) == structural_failure_by_definition(d)


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 for chains of 1000 and 2000")
def test_sort_on_long_chains_matches_reference():
    # The reference recurses once per chained split.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        rng = random.Random(16)
        for d in (
            embed_permutation(range(2000, 0, -1)),
            embed_permutation(range(1, 2001)),
            stretched_chain(rng, [rng.randint(1, 3) for _ in range(1000)], False, None),
            chain_diagram(rng, 2000, "decreasing", "middle"),
            chain_diagram(rng, 2000, "increasing", "middle"),
        ):
            assert sort_diagram(d) == sort_diagram_by_definition(d)
    finally:
        sys.setrecursionlimit(limit)


@given(diagrams(max_order=4))
def test_sort_is_idempotent_on_its_fixpoints_signature(d):
    # The image always sorts to a diagram with the same signature again.
    once = sort_diagram(d)
    twice = sort_diagram(once)
    assert _signature(once) == _signature(twice)


# --- traces ----------------------------------------------------------------


def test_traced_result_matches_plain_sort():
    rng = random.Random(3)
    for _ in range(200):
        d = random_diagram(rng, rng.randint(0, 4))
        result, trace = sort_diagram_traced(d)
        assert result == sort_diagram(d)
        if d.propagation_number() == 0:
            assert trace == ()


def _events(trace):
    return [_tagged(*event) for event in trace]


def test_trace_matches_reference():
    # Every step, every block's factor: middle groups of bottom-only blocks
    # before, inside and after the propagating group, top-only groups after it.
    for n in range(5):
        for d in enumerate_diagrams(n):
            assert _events(sort_diagram_traced(d)[1]) == trace_by_definition(d), format_diagram(d)
    rng = random.Random(12)
    for _ in range(300):
        d = sparse_diagram(rng, rng.randint(5, 24), rng.randint(2, 12))
        assert _events(sort_diagram_traced(d)[1]) == trace_by_definition(d), format_diagram(d)
    for base in ("decreasing", "increasing"):
        d = chain_diagram(rng, 120, base, "middle")
        assert _events(sort_diagram_traced(d)[1]) == trace_by_definition(d)
    for _ in range(75):
        d = common_point_diagram(rng, rng.randint(5, 40))
        assert _events(sort_diagram_traced(d)[1]) == trace_by_definition(d), format_diagram(d)


def test_trace_lists_blocks_in_canonical_order():
    # ``sort --trace`` prints each factor's blocks in their event order, which
    # is canonical (by least node, tops before bottoms).
    # test_trace_matches_reference compares dicts, so it cannot see this.
    def check(d):
        n = d.order
        for event in sort_diagram_traced(d)[1]:
            for factor in (event.left, *event.middles, event.right):
                keys = [min(x if x > 0 else n - x for x in _signed(blk)) for blk in factor]
                assert keys == sorted(keys), format_diagram(d)

    for n in range(5):
        for d in enumerate_diagrams(n):
            check(d)
    rng = random.Random(22)
    for _ in range(300):
        check(sparse_diagram(rng, rng.randint(5, 24), rng.randint(2, 12)))
    for base in ("decreasing", "increasing"):
        for plant in (None, "root", "middle", "leaf"):
            check(chain_diagram(rng, 60, base, plant))


def test_trace_and_decompose_hold_the_diagrams_own_blocks():
    # Every block an event or a decomposition names is one of the input's
    # own (top_mask, bottom_mask) tuples, the same object, over the shapes
    # tests/digest.py reads.  The diagram holds its blocks, so their ids
    # stay theirs while it lives.
    def check(d):
        own = {id(blk) for blk in d.blocks}
        for event in sort_diagram_traced(d)[1]:
            named = [event.block, *event.left, *(blk for group in event.middles for blk in group), *event.right]
            assert all(id(blk) in own for blk in named), format_diagram(d)
        if d.propagation_number():
            assert id(decompose(d).block) in own, format_diagram(d)

    for n in range(5):
        for d in enumerate_diagrams(n):
            check(d)
    rng = random.Random(30)
    for _ in range(100):
        check(sparse_diagram(rng, rng.randint(5, 24), rng.randint(2, 12)))
    for base in ("decreasing", "increasing"):
        for plant in (None, "root", "middle", "leaf"):
            check(chain_diagram(rng, 30, base, plant))
    for _ in range(20):
        check(common_point_diagram(rng, rng.randint(5, 64)))
        check(one_item_cluster_diagram(rng, rng.randint(2, 120)))
    check(embed_permutation(rng.sample(range(1, 65), 64)))
    for n in range(32, 257, 32):
        check(sparse_diagram(rng, n, round(2 * n**0.5)))
    check(cluster_chain_diagram(30))


def test_trace_and_decompose_build_no_node_sets(monkeypatch):
    # A one-block chain lists every block below each step, 44,850 entries
    # at n = 300, all mask pairs: no signed-node set is built.
    calls = []
    real_signed = core_module._signed
    spy = lambda blk: calls.append(blk) or real_signed(blk)
    monkeypatch.setattr(core_module, "_signed", spy)
    monkeypatch.setattr(sorting_module, "_signed", spy, raising=False)  # should sorting import it again
    d = embed_permutation(range(1, 301))
    _, trace = sort_diagram_traced(d)
    assert sum(len(event.left) + sum(map(len, event.middles)) + len(event.right) for event in trace) == 299 * 300 // 2
    for d in (d, parse_diagram(EX5_IN, 8), parse_diagram(EX18_IN, 9), cluster_chain_diagram(10)):
        sort_diagram_traced(d)
        decompose(d)
    assert calls == []


def test_trace_of_identity_two():
    # Two split steps; the first still classifies {1,1'} as a left block,
    # the second has nothing left to classify.
    _, trace = sort_diagram_traced(identity_diagram(2))
    assert trace == ((_pair([2], [2]), (_pair([1], [1]),), (), ()), (_pair([1], [1]), (), (), ()))


def test_trace_first_event_eight_node_example():
    _, trace = sort_diagram_traced(parse_diagram(EX5_IN, 8))
    first = trace[0]
    assert first.block == _pair([6], [7])
    assert first.left == (_pair([1, 2], []), _pair([4], [3]))
    assert first.middles == ((_pair([3, 5, 7], [2, 4, 6]), _pair([], [5, 8])),)
    assert first.right == ()


def test_trace_first_event_nine_node_example():
    _, trace = sort_diagram_traced(parse_diagram(EX18_IN, 9))
    first = trace[0]
    assert first.block == _pair([5, 8, 9], [7, 8, 9])
    assert first.left == (_pair([1, 2, 3], [4, 5, 6]),)
    assert first.middles == ((_pair([4, 6, 7], [1, 2, 3]),),)
