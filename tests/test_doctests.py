"""The ``>>>`` examples in the module docstrings run as tests."""

from __future__ import annotations

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["core", "sorting", "analysis"])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"diagramsort.{name}"))
    assert result.attempted > 0
    assert result.failed == 0
