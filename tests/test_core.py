"""Diagram representation, composition, algebra, enumeration, text format."""

from __future__ import annotations

import copy
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagrams, random_diagram
from reference import (
    algebra_multiply_by_pairs,
    block_faults,
    block_walk_fault,
    compose_by_graph_walk,
    sparse_diagram,
    stretched_identity,
)
from diagramsort import core
from diagramsort.core import (
    AlgebraElement,
    PartitionDiagram,
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


def test_diagram_hash_is_lazy_and_stable():
    d = parse_diagram(EX1_TEXT, 5)
    # Before the first hash, _hash is still guarded, and clones hash like the original.
    with pytest.raises(AttributeError):
        setattr(d, "_hash", 0)
    with pytest.raises(AttributeError):
        delattr(d, "_hash")
    clones = [pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)]
    same = PartitionDiagram(5, d.blocks[::-1])
    assert hash(d) == hash((5, d.blocks)) == hash(same) and same == d
    clones += [pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)]
    assert all(clone == d and hash(clone) == hash(d) for clone in clones)
    with pytest.raises(AttributeError):
        setattr(d, "_hash", 0)
    with pytest.raises(AttributeError):
        delattr(d, "_hash")
    assert hash(d) == hash((5, d.blocks))


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


# --- constructor validation -------------------------------------------------


@pytest.mark.parametrize(
    "order, blocks, message",
    [
        (2, [(1, 1), (2, 0), (0, 0), (0, 2)], "empty block"),
        (2, [(-1, 1), (0, 2)], "node index out of range 1..2"),  # negative mask
        (2, [(-1, 1), (4, 2)], "node index out of range 1..2"),  # negative, yet the row sums to full
        (2, [(1, 1), (2, 2), (4, 0)], "node index out of range 1..2"),  # bit at position >= order
        (2, [(3, 1), (2, 2)], "blocks overlap"),  # shared top bit, the union still full
        (2, [(1, 1), (2, 2), (0, 2)], "blocks overlap"),  # shared bottom bit
        (2, [(1, 1)], "blocks do not cover all 2n nodes"),
        (1, [], "blocks do not cover all 2n nodes"),
        # several faults: the first in the order above is named
        (2, [(4, 0), (0, 0)], "empty block"),
        (2, [(3, 1), (6, 2)], "node index out of range 1..2"),
        (2, [(3, 1), (2, 0)], "blocks overlap"),
    ],
)
def test_constructor_error_messages(order, blocks, message):
    with pytest.raises(ValueError) as err:
        PartitionDiagram(order, blocks)
    assert str(err.value) == message


@st.composite
def _edited_mask_lists(draw):
    """A valid diagram's blocks of order <= 6 after up to three random edits."""
    d = draw(diagrams(max_order=6))
    n = d.order
    blocks = list(d.blocks)
    mask = st.integers(-3, (1 << (n + 1)) - 1)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "add", "flip", "negate"]))
        if edit == "add" or not blocks:
            blocks.append((draw(mask), draw(mask)))
            continue
        i = draw(st.integers(0, len(blocks) - 1))
        t, b = blocks[i]
        if edit == "drop":
            del blocks[i]
        elif edit == "flip":
            bit = 1 << draw(st.integers(0, n))
            blocks[i] = (t ^ bit, b) if draw(st.booleans()) else (t, b ^ bit)
        else:
            blocks[i] = (-t, b) if t else (t, -b)
    return n, blocks


@settings(max_examples=400)
@given(_edited_mask_lists())
def test_constructor_accepts_exactly_what_the_block_walk_accepts(case):
    order, blocks = case
    expected = block_walk_fault(order, blocks)
    try:
        d = PartitionDiagram(order, blocks)
    except ValueError as err:
        assert expected is not None
        assert str(err) == block_faults(order, blocks)[0]
    else:
        assert expected is None
        assert sorted(d.blocks) == sorted(blocks)


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
    assert _check_embedding() == "injective with full propagation, equal to the word encoding, n <= 6"


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


def test_rgs_strings_equal_a_filter_of_all_words():
    # Position i holds at most letter i; keep the words with no letter above 1 + the largest before it.
    def growth(word):
        return all(v <= 1 + max(word[:i], default=-1) for i, v in enumerate(word))

    for length in range(9):
        every = [w for w in product(*(range(i + 1) for i in range(length))) if growth(w)]
        assert list(core._rgs_strings(length)) == every
        assert len(every) == _bell(length)
        for prefix in [(0,), (0, 1), (0, 0, 1), (0, 1, 0, 2, 3)]:
            if len(prefix) <= length:
                expected = [w for w in every if w[: len(prefix)] == prefix]
                assert list(core._rgs_strings(length, prefix)) == expected


def test_rgs_strings_reject_bad_prefixes():
    cases = [
        (2, (0, 0, 0), "prefix longer than the string"),
        (1, (1, 1), "prefix longer than the string"),  # checked before the letters
        (3, (1,), "invalid restricted growth prefix"),
        (3, (0, 2), "invalid restricted growth prefix"),
        (3, (0, -1), "invalid restricted growth prefix"),
    ]
    for length, prefix, message in cases:
        with pytest.raises(ValueError) as err:
            list(core._rgs_strings(length, prefix))
        assert (prefix, str(err.value)) == (prefix, message)


# --- text format -----------------------------------------------------------


def test_parse_example_text():
    d = parse_diagram(EX1_TEXT, 5)
    assert d.block_sets()[0] == frozenset({1, 4})
    assert format_diagram(d) == EX1_TEXT


def test_parse_accepts_minus_synonym_and_whitespace():
    assert parse_diagram("{1, -2 | 2, 1'}", 2) == parse_diagram("{1,2'|2,1'}", 2)


def test_parse_braces_only_is_all_singletons():
    assert parse_diagram("{}", 2) == canonicalize([], 2)


# Every parse rejection with its exact message.  Blocks are read in order
# and the first faulty block is named; within a block a malformed token is
# named before a bad or repeated index.
PARSE_REJECTIONS = [
    ("1,2", 3, "diagram text must be enclosed in braces"),
    ("{1,2", 3, "diagram text must be enclosed in braces"),
    ("{|1}", 3, "empty block in diagram text"),
    ("{1,}", 3, "bad node token ''"),
    ("{1,x}", 3, "bad node token 'x'"),
    ("{1''}", 3, "bad node token \"1''\""),
    ("{--1}", 3, "bad node token '--1'"),
    ("{+1}", 3, "bad node token '+1'"),
    ("{1_0}", 3, "bad node token '1_0'"),
    # Unicode digits are not node indices, though str.isdigit accepts them.
    ("{\u0661,\u0662'}", 2, "bad node token '\u0661'"),  # Arabic-Indic 1 and 2
    ("{\u00b2}", 2, "bad node token '\u00b2'"),  # superscript 2, which int() rejects
    ("{0}", 3, "node 0 is not valid; nodes are +i (top) or -i (bottom)"),
    ("{-0}", 3, "node 0 is not valid; nodes are +i (top) or -i (bottom)"),
    ("{4}", 3, "node index 4 out of range 1..3"),
    ("{2,-7}", 3, "node index 7 out of range 1..3"),
    ("{1,1}", 3, "duplicate node 1 in block"),
    ("{1',-1}", 3, "duplicate node 1' in block"),
    ("{1|1}", 3, "blocks overlap"),
    ("{4|x}", 3, "node index 4 out of range 1..3"),  # the first faulty block wins
    ("{4,x}", 3, "bad node token 'x'"),  # a malformed token wins within a block
    ("{1|1|x}", 3, "bad node token 'x'"),  # overlap only once every block reads well
    ("{1}", -1, "order must be nonnegative"),
    ("1,2", -1, "order must be nonnegative"),  # the order is checked before the text
]


def test_parse_rejects_bad_input():
    for text, order, message in PARSE_REJECTIONS:
        with pytest.raises(ValueError) as err:
            parse_diagram(text, order)
        assert (text, str(err.value)) == (text, message)


@pytest.fixture
def fresh_names():
    """The text layer's cached name tables, emptied for this test."""
    core._node_names.cache_clear()


def test_parse_rejections_survive_a_larger_table(fresh_names):
    for n in (256, core._NAMES_LIMIT + 9):
        parse_diagram(format_diagram(random_diagram(random.Random(3), n)), n)
    assert core._node_names.cache_info().currsize == 2  # the 256 and 1024 tables
    test_parse_rejects_bad_input()  # "{4}" at order 3 must still be out of range 1..3


def test_faults_past_the_table_limit_read_as_at_order_three(fresh_names):
    """Indices past the name tables reach ``_read_block``; its faults read as at a small order."""

    def faults(n):
        i = n - 1  # past the tables' limit when n is
        return [
            (f"{{{i},x}}", "bad node token 'x'"),
            (f"{{{i},0}}", "node 0 is not valid; nodes are +i (top) or -i (bottom)"),
            (f"{{{i},{n + 1}}}", f"node index {n + 1} out of range 1..{n}"),
            (f"{{{i},{i}}}", f"duplicate node {i} in block"),
            (f"{{{i}',-{i}}}", f"duplicate node {i}' in block"),
        ]

    for n in (3, core._NAMES_LIMIT + 9):
        for text, message in faults(n):
            with pytest.raises(ValueError) as err:
                parse_diagram(text, n)
            assert (n, text, str(err.value)) == (n, text, message)
    assert core._names_for(core._NAMES_LIMIT + 9)[0] == core._NAMES_LIMIT


def test_round_trips_at_each_table_and_after_larger_ones(fresh_names):
    rng = random.Random(29)
    orders = [0, 1, 63, 64, 65, 128, 129, 300, core._NAMES_LIMIT + 9]
    capacities = set()
    for n in orders + orders[::-1]:
        for d in (random_diagram(rng, n), sparse_diagram(rng, n, max(1, n // 3)), identity_diagram(n)):
            assert parse_diagram(format_diagram(d), n) == d
        capacity = core._names_for(n)[0]
        # The least power of two at least n, capped at the limit.
        assert capacity == min(next(1 << k for k in range(n + 1) if 1 << k >= n), core._NAMES_LIMIT)
        capacities.add(capacity)
    assert sorted(capacities) == [1, 64, 128, 256, 512, core._NAMES_LIMIT]
    assert core._node_names.cache_info().currsize == len(capacities)  # one table per capacity


def test_odd_spellings_equal_canonicalize(fresh_names):
    """-i, leading zeros and whitespace, read token by token, at any table size."""
    rng = random.Random(31)
    top = lambda i: rng.choice([str(i), f"0{i}", f"00{i}"])
    bottom = lambda i: rng.choice([f"{i}'", f"-{i}", f"0{i}'", f"-0{i}"])
    space = lambda: rng.choice(["", " ", "\t", "\n"])
    for n in [1, 5, 64, 200, 3, 2]:
        d = random_diagram(rng, n)
        blocks = [sorted(blk) for blk in d.block_sets()]
        odd = lambda v: space() + (top(v) if v > 0 else bottom(-v)) + space()
        text = "{" + "|".join(",".join(map(odd, blk)) for blk in blocks) + "}"
        assert parse_diagram(text, n) == canonicalize(blocks, n) == d
    assert parse_diagram("{01, -1 | 2,\t02'}", 2) == canonicalize([{1, -1}, {2, -2}], 2)


def _scrambled(rng, d):
    """d's blocks as signed-node lists and as non-canonical text.

    Blocks and nodes are shuffled, bottom nodes written as i' or -i at
    random, whitespace scattered between tokens, and about half the
    singletons left out.
    """
    blocks = [list(blk) for blk in d.block_sets() if len(blk) > 1 or rng.random() < 0.5]
    rng.shuffle(blocks)
    for blk in blocks:
        rng.shuffle(blk)
    space = lambda: rng.choice(["", "", " ", "\t", "\n "])
    name = lambda v: str(v) if v > 0 else rng.choice([f"{-v}'", str(v)])
    body = "|".join(",".join(space() + name(v) + space() for v in blk) for blk in blocks)
    return blocks, space() + "{" + body + "}" + space()


def test_parse_matches_canonicalize_on_scrambled_text():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randint(64, 256)
        for d in (random_diagram(rng, n), sparse_diagram(rng, n, rng.randint(n // 4, n))):
            blocks, text = _scrambled(rng, d)
            assert parse_diagram(text, n) == canonicalize(blocks, n) == d


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


def test_algebra_multiply_matches_pairwise_reference():
    rng = random.Random(43)
    collisions = middles = 0
    for _ in range(12):
        n = rng.randint(3, 128)
        empty = canonicalize([], n)
        xs = [sparse_diagram(rng, n, rng.randint(n // 2, n)), random_diagram(rng, n), stretched_identity(rng, n)]
        xs.append(compose(xs[0], empty)[0])  # times the empty diagram, it repeats xs[0]'s composite
        ys = [empty, sparse_diagram(rng, n, n), stretched_identity(rng, n)]
        coeff = lambda: XiPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) or 1
        a = AlgebraElement(n, {x: coeff() for x in xs})
        b = AlgebraElement(n, {y: coeff() for y in ys})
        product, expected = algebra_multiply(a, b), algebra_multiply_by_pairs(a, b)
        assert product == expected
        assert list(product.terms) == list(expected.terms)  # first met, d1 outer and d2 inner
        pairs = [compose_by_graph_walk(x, y) for x in a.terms for y in b.terms]
        collisions += len(pairs) - len({c for c, _ in pairs})
        middles += sum(m > 0 for _, m in pairs)
    assert collisions > 0 and middles > 0


def test_algebra_rejects_order_mismatch():
    with pytest.raises(ValueError):
        AlgebraElement(3, {identity_diagram(2): 1})
    with pytest.raises(ValueError):
        AlgebraElement.from_diagram(identity_diagram(2)) + AlgebraElement.from_diagram(identity_diagram(3))
