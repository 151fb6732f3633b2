"""Stretch morphisms and the stretch-of-identity predicate."""

from __future__ import annotations

import random

import pytest

from conftest import random_diagram
from diagramsort.core import (
    canonicalize,
    format_diagram,
    identity_diagram,
    parse_diagram,
)
from diagramsort.stretch import SetComposition, delta_k, is_stretch_of_identity, stretch_map
from diagramsort.verification import _check_stretch_characterization
from reference import random_composition, stretch_by_nodes


# --- SetComposition --------------------------------------------------------


def test_parse_set_composition():
    alpha = SetComposition.parse("1,2|3|5,6,7|4")
    assert len(alpha) == 4
    assert alpha[2] == frozenset({5, 6, 7})
    assert alpha.support == frozenset(range(1, 8))


def test_set_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        SetComposition([{1}, {1, 2}])
    with pytest.raises(ValueError):
        SetComposition([set()])
    with pytest.raises(ValueError):
        SetComposition([{0}])
    with pytest.raises(ValueError):
        SetComposition.parse("1,|2")


def test_set_composition_text_rejects_a_repeated_integer():
    with pytest.raises(ValueError, match="repeated integer 3 in part '2,3,3'"):
        SetComposition.parse("1|2,3,3")
    assert SetComposition([[1, 1], [2]]) == SetComposition.parse("1|2")  # iterables keep set semantics


def test_set_composition_rejects_bools():
    # True == 1 and False == 0 as ints, but a bool is not an index.
    for parts in ([[True], [2]], [[1, False]], [[2], [3, True]]):
        with pytest.raises(ValueError, match="^parts must contain positive integers$"):
            SetComposition(parts)
    with pytest.raises(ValueError, match="^parts must contain positive integers$"):
        stretch_map([[True], [2]], 2, identity_diagram(2))


# --- delta_k ---------------------------------------------------------------


def test_delta_pads_missing_indices():
    got = delta_k([{1, 2, -1, -2}], 3)
    assert format_diagram(got) == "{1,2,1',2'|3,3'}"


def test_delta_on_empty_input_is_identity():
    assert delta_k([], 2) == identity_diagram(2)


def test_delta_rejects_small_k():
    with pytest.raises(ValueError):
        delta_k([{1, 4, -1, -4}], 3)


# --- stretch_map -----------------------------------------------------------


def test_stretch_example_image():
    alpha = SetComposition.parse("1,2|3|5,6,7|4")
    image = stretch_map(alpha, 7, identity_diagram(4))
    assert format_diagram(image) == "{1,2,1',2'|3,3'|4,4'|5,6,7,5',6',7'}"
    assert is_stretch_of_identity(image)


def test_stretch_on_non_identity_diagram():
    alpha = SetComposition([{1, 2}, {3}])
    crossing = canonicalize([{1, -2}, {2, -1}], 2)
    image = stretch_map(alpha, 3, crossing)
    assert image == canonicalize([{1, 2, -3}, {3, -1, -2}], 3)


def test_stretch_rejects_length_mismatch():
    with pytest.raises(ValueError):
        stretch_map(SetComposition([{1}]), 1, identity_diagram(2))


def test_stretch_rejects_small_k():
    with pytest.raises(ValueError):
        stretch_map(SetComposition([{5}]), 4, identity_diagram(1))


def test_stretch_matches_node_oracle():
    rng = random.Random(19)
    gaps = 0
    for _ in range(300):
        m = rng.randint(0, 6)
        k = rng.randint(max(m, 1), 48)
        alpha = random_composition(rng, k, m)
        d = random_diagram(rng, m)
        image = stretch_map(alpha, k, d)
        assert image == stretch_by_nodes(alpha, k, d)
        gaps += max((max(p) for p in alpha), default=0) > sum(map(len, alpha))
    assert gaps > 0  # some supports skip indices below their largest


@pytest.mark.parametrize(
    "alpha, k, order, message",
    [
        ([{1}], 1, 2, "set composition length must equal the diagram order"),
        ([{5}, {1}], 4, 2, "k must be at least the largest index used"),
        ([{10**18}], 1, 1, "k must be at least the largest index used"),
    ],
)
def test_stretch_errors_match_node_oracle(alpha, k, order, message):
    for kernel in (stretch_map, stretch_by_nodes):
        with pytest.raises(ValueError, match=message):
            kernel(alpha, k, identity_diagram(order))


def test_singleton_composition_acts_as_identity():
    # stretch-characterization also requires the singleton composition to fix every diagram.
    assert _check_stretch_characterization() == "221 diagrams against brute-force search, n <= 3"


def test_stretch_round_trip_random():
    rng = random.Random(11)
    for _ in range(1000):
        universe = [x for x in range(1, 7) if rng.random() < 0.7]
        rng.shuffle(universe)
        parts, i = [], 0
        while i < len(universe):
            j = min(len(universe), i + rng.randint(1, 3))
            parts.append(universe[i:j])
            i = j
        alpha = SetComposition(parts)
        k = max(alpha.support, default=0) + rng.randint(0, 2)
        image = stretch_map(alpha, k, identity_diagram(len(alpha)))
        assert is_stretch_of_identity(image)


# --- predicate -------------------------------------------------------------


def test_stretch_of_identity_spot_values():
    assert is_stretch_of_identity(identity_diagram(3))
    assert is_stretch_of_identity(canonicalize([{1, 2, -1, -2}], 2))
    assert not is_stretch_of_identity(parse_diagram("{}", 1))
    assert not is_stretch_of_identity(canonicalize([{1, -2}, {2, -1}], 2))
    assert is_stretch_of_identity(canonicalize([], 0))


def test_characterization_against_brute_force():
    assert _check_stretch_characterization() == "221 diagrams against brute-force search, n <= 3"
