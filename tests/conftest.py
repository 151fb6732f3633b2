"""Shared generators for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from diagramsort.core import PartitionDiagram, _diagram_from_rgs
from diagramsort.verification import _random_diagram as random_diagram  # noqa: F401


@st.composite
def diagrams(draw, max_order: int = 4, min_order: int = 0) -> PartitionDiagram:
    order = draw(st.integers(min_order, max_order))
    rgs = []
    high = 0
    for _ in range(2 * order):
        v = draw(st.integers(0, high))
        rgs.append(v)
        high = max(high, v + 1)
    return _diagram_from_rgs(order, tuple(rgs))
