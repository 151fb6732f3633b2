"""Diagram representation, composition, algebra, enumeration, text format."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings

from conftest import diagrams, random_diagram
from reference import compose_by_graph_walk, sparse_diagram, stretched_identity
from diagramsort.core import (
    AlgebraElement,
    XiPoly,
    algebra_multiply,
    canonicalize,
    compose,
    embed_permutation,
    enumerate_diagrams,
    format_diagram,
    identity_diagram,
    parse_diagram,
    to_dot,
)
from diagramsort.verification import _check_embedding, _check_identity_laws

EX1_TEXT = "{1,4|2,3,4',5'|5|1',3'|2'}"
EX2_RIGHT = "{1,3|2,4,3'|5,4',5'|1'|2'}"
EX2_PRODUCT = "{1,4|2,3,3',4',5'|5|1'|2'}"


def _bell(m: int) -> int:
    # Bell triangle; independent oracle for the enumeration counts.
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


# --- canonicalize ----------------------------------------------------------


def test_canonicalize_pads_singletons():
    d = canonicalize([{1, -2}], 2)
    assert d.block_sets() == (frozenset({1, -2}), frozenset({2}), frozenset({-1}))


def test_canonicalize_example_blocks():
    d = canonicalize([{1, 4}, {2, 3, -4, -5}, {-1, -3}], 5)
    assert d == parse_diagram(EX1_TEXT, 5)


def test_canonicalize_empty_order_zero():
    d = canonicalize([], 0)
    assert d.order == 0 and d.blocks == ()


def test_diagram_is_immutable():
    d = parse_diagram(EX1_TEXT, 5)
    before = (d.order, d.blocks, hash(d))
    for name, value in [("blocks", ()), ("order", 3), ("_hash", 0), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(d, name, value)
    for name in ("blocks", "order", "_hash"):
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert (d.order, d.blocks, hash(d)) == before
    for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert clone == d and hash(clone) == hash(d)


def test_canonicalize_rejects_overlap():
    with pytest.raises(ValueError):
        canonicalize([{1, 2}, {2, -1}], 2)


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonicalize([{3}], 2)
    with pytest.raises(ValueError):
        canonicalize([{0}], 2)


def test_canonicalize_rejects_empty_block():
    with pytest.raises(ValueError):
        canonicalize([set()], 2)


@given(diagrams(max_order=4))
def test_canonical_form_is_idempotent(d):
    assert canonicalize(d.block_sets(), d.order) == d


# --- compose ---------------------------------------------------------------


def test_compose_example_pair():
    d1 = parse_diagram(EX1_TEXT, 5)
    d2 = parse_diagram(EX2_RIGHT, 5)
    product, middle = compose(d1, d2)
    assert format_diagram(product) == EX2_PRODUCT
    assert middle == 1


def test_compose_identity_laws_exhaustive():
    assert _check_identity_laws() == "221 diagrams, n <= 3"


def test_compose_rejects_order_mismatch():
    with pytest.raises(ValueError):
        compose(identity_diagram(2), identity_diagram(3))


def test_compose_middle_count_matches_graph_walk():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 4)
        d1, d2 = random_diagram(rng, n), random_diagram(rng, n)
        assert compose(d1, d2) == compose_by_graph_walk(d1, d2)


def test_compose_matches_graph_walk_exhaustive():
    for n in range(3):
        every = list(enumerate_diagrams(n))
        for d1 in every:
            for d2 in every:
                assert compose(d1, d2) == compose_by_graph_walk(d1, d2)


def test_compose_matches_graph_walk_at_large_orders():
    rng = random.Random(41)
    middles = {"rgs": 0, "sparse": 0, "stretched": 0}
    for _ in range(40):
        n = rng.randint(3, 128)
        pairs = {
            "rgs": (random_diagram(rng, n), random_diagram(rng, n)),
            "sparse": (sparse_diagram(rng, n, n), sparse_diagram(rng, n, n)),
            "stretched": (stretched_identity(rng, n), stretched_identity(rng, n)),
        }
        for kind, (d1, d2) in pairs.items():
            product, middle = compose(d1, d2)
            assert (product, middle) == compose_by_graph_walk(d1, d2)
            middles[kind] += middle
    assert middles["sparse"] > 0  # the middle-only branch was exercised
    assert middles["stretched"] == 0


def test_compose_associativity_with_exponents():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(0, 4)
        a, b, c = (random_diagram(rng, n) for _ in range(3))
        ab, l_ab = compose(a, b)
        bc, l_bc = compose(b, c)
        left, l_left = compose(ab, c)
        right, l_right = compose(a, bc)
        assert left == right
        assert l_ab + l_left == l_bc + l_right


# --- embedding and propagation --------------------------------------------


def test_embed_231():
    assert embed_permutation((2, 3, 1)) == canonicalize([{1, -2}, {2, -3}, {3, -1}], 3)


def test_embed_312():
    assert embed_permutation((3, 1, 2)) == canonicalize([{1, -3}, {2, -1}, {3, -2}], 3)


def test_embed_identity():
    for n in range(5):
        assert embed_permutation(range(1, n + 1)) == identity_diagram(n)


def test_embed_rejects_non_permutation():
    with pytest.raises(ValueError):
        embed_permutation((1, 3))
    with pytest.raises(ValueError):
        embed_permutation((1, 1))


def test_embed_injective_and_propagating():
    assert _check_embedding() == "injective with full propagation, n <= 6"


def test_propagation_number_examples():
    assert parse_diagram(EX1_TEXT, 5).propagation_number() == 1
    assert identity_diagram(4).propagation_number() == 4
    assert parse_diagram("{}", 3).propagation_number() == 0


def test_identity_diagram_examples():
    assert identity_diagram(0).blocks == ()
    assert format_diagram(identity_diagram(1)) == "{1,1'}"
    assert format_diagram(identity_diagram(3)) == "{1,1'|2,2'|3,3'}"


# --- enumeration -----------------------------------------------------------


def test_enumerate_order_one():
    got = list(enumerate_diagrams(1))
    assert len(got) == 2
    assert canonicalize([{1, -1}], 1) in got
    assert canonicalize([], 1) in got


def test_enumerate_counts_match_bell_triangle():
    for n in range(5):
        seen = set(enumerate_diagrams(n))
        assert len(seen) == _bell(2 * n)


def test_enumerate_prefix_partition_is_exact():
    whole = list(enumerate_diagrams(2))
    by_prefix = [d for p in [(0, 0), (0, 1)] for d in enumerate_diagrams(2, p)]
    assert whole == by_prefix


# --- text format -----------------------------------------------------------


def test_parse_example_text():
    d = parse_diagram(EX1_TEXT, 5)
    assert d.block_sets()[0] == frozenset({1, 4})
    assert format_diagram(d) == EX1_TEXT


def test_parse_accepts_minus_synonym_and_whitespace():
    assert parse_diagram("{1, -2 | 2, 1'}", 2) == parse_diagram("{1,2'|2,1'}", 2)


def test_parse_braces_only_is_all_singletons():
    assert parse_diagram("{}", 2) == canonicalize([], 2)


def test_parse_rejects_bad_input():
    for text in ["1,2", "{1,}", "{|1}", "{1,2", "{1,x}", "{1''}", "{--1}"]:
        with pytest.raises(ValueError):
            parse_diagram(text, 3)
    with pytest.raises(ValueError):
        parse_diagram("{1,1}", 3)  # duplicate node
    with pytest.raises(ValueError):
        parse_diagram("{4}", 3)  # index beyond the order


@settings(max_examples=300)
@given(diagrams(max_order=5))
def test_format_parse_round_trip(d):
    assert parse_diagram(format_diagram(d), d.order) == d


def test_round_trip_bulk_random():
    rng = random.Random(23)
    for n in range(6):
        for _ in range(1000):
            d = random_diagram(rng, n)
            assert parse_diagram(format_diagram(d), n) == d


def test_to_dot_shape():
    dot = to_dot(parse_diagram("{1,3,2',3'|2,1'}", 3))
    assert dot.startswith("graph")
    assert "rank=source" in dot and "rank=sink" in dot
    assert 't1 -- t3 -- b2 -- b3;' in dot
    assert 't2 -- b1;' in dot


# --- algebra ---------------------------------------------------------------


def test_xipoly_arithmetic():
    one = XiPoly([1])
    xi = XiPoly.xi_power(1)
    assert xi * xi == XiPoly.xi_power(2)
    assert one + xi == XiPoly([1, 1])
    assert XiPoly([0, 0]) == XiPoly()
    assert str(XiPoly([1, 0, 3])) == "1 + 3*xi^2"
    assert str(XiPoly()) == "0"


def test_algebra_product_of_example_pair():
    d1 = parse_diagram(EX1_TEXT, 5)
    d2 = parse_diagram(EX2_RIGHT, 5)
    product = algebra_multiply(AlgebraElement.from_diagram(d1), AlgebraElement.from_diagram(d2))
    composite, _ = compose(d1, d2)
    assert product == AlgebraElement(5, {composite: XiPoly.xi_power(1)})


def test_algebra_identity_squares_to_itself():
    ident = AlgebraElement.from_diagram(identity_diagram(3))
    assert ident * ident == ident


def test_algebra_distributivity_spot():
    d1 = parse_diagram(EX1_TEXT, 5)
    d2 = parse_diagram(EX2_RIGHT, 5)
    ident = identity_diagram(5)
    left = AlgebraElement.from_diagram(d1) + AlgebraElement.from_diagram(ident)
    result = left * AlgebraElement.from_diagram(d2)
    composite, _ = compose(d1, d2)
    assert result == AlgebraElement(5, {composite: XiPoly.xi_power(1), d2: 1})


def test_algebra_cancellation_removes_zero_terms():
    d = identity_diagram(2)
    zero = AlgebraElement(2, {d: 1}) + AlgebraElement(2, {d: -1})
    assert zero.terms == {}


def test_algebra_rejects_order_mismatch():
    with pytest.raises(ValueError):
        AlgebraElement(3, {identity_diagram(2): 1})
    with pytest.raises(ValueError):
        AlgebraElement.from_diagram(identity_diagram(2)) + AlgebraElement.from_diagram(identity_diagram(3))
