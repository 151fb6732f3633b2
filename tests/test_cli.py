"""End-to-end runs of every subcommand through the in-process entry point."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import diagramsort
from diagramsort.cli import run

EX_LEFT = "{1,4|2,3,4',5'|5|1',3'|2'}"
EX_RIGHT = "{1,3|2,4,3'|5,4',5'|1'|2'}"
EX_PRODUCT = "{1,4|2,3,3',4',5'|5|1'|2'}"


def test_parse_canonicalizes(capsys):
    assert run(["parse", "--order", "5", "{2'|3,2,5',4'|1',3'|4,1|5}"]) == 0
    assert capsys.readouterr().out == EX_LEFT + "\n"


def test_parse_fills_in_singletons(capsys):
    assert run(["parse", "--order", "3", "{1,2'}"]) == 0
    assert capsys.readouterr().out == "{1,2'|2|3|1'|3'}\n"


def test_parse_empty_braces(capsys):
    assert run(["parse", "--order", "2", "{}"]) == 0
    assert capsys.readouterr().out == "{1|2|1'|2'}\n"


def test_compose_prints_product_and_middle_count(capsys):
    assert run(["compose", "--order", "5", EX_LEFT, EX_RIGHT]) == 0
    assert capsys.readouterr().out == EX_PRODUCT + "\nl=1\n"


def test_sort_permutation_diagram(capsys):
    assert run(["sort", "--order", "3", "{1,3'|2,1'|3,2'}"]) == 0
    assert capsys.readouterr().out == "{1,1'|2,2'|3,3'}\n"


def test_sort_trace_lines(capsys):
    assert run(["sort", "--trace", "--order", "3", "{1,2'|2,3'|3,1'}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "B={3'} L=[{1,2'}] R=[{3,1'}]"
    assert lines[-1] == "{1,2'|2,1'|3,3'}"


def test_stretch_subcommand(capsys):
    assert run(
        ["stretch", "--alpha", "1,2|3", "--k", "3", "--order", "2", "{1,2'|2,1'}"]
    ) == 0
    assert capsys.readouterr().out == "{1,2,3'|3,1',2'}\n"


def test_check_reports_predicates(capsys):
    assert run(["check", "--order", "3", "{1,3,2',3'|2,1'}"]) == 0
    assert capsys.readouterr().out == (
        "propagating_blocks=2\n"
        "stretch_of_identity=false\n"
        "sortable_direct=true\n"
        "sortable_structural=true\n"
    )


def test_check_on_unsortable_diagram(capsys):
    assert run(["check", "--order", "2", "{1,2|1',2'}"]) == 0
    out = capsys.readouterr().out
    assert "sortable_direct=false" in out
    assert "sortable_structural=false" in out


def test_census_single_order(capsys):
    assert run(["census", "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("# sortable counts are computed, not from paper")
    assert captured.out.startswith("1\t2\t1\t")


def test_census_json_rows(capsys):
    assert run(["census", "--n", "1..3", "--json", "--check"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["n"], r["total"], r["sortable"], r["candidates"]) for r in rows] == [
        (1, 2, 1, 2),
        (2, 15, 3, 15),
        (3, 203, 12, 203),
    ]
    assert run(["census", "--n", "3", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["total"], row["sortable"], row["candidates"]) == (203, 12, 13)


def test_census_order_zero(capsys):
    assert run(["census", "--n", "0"]) == 0
    assert capsys.readouterr().out.startswith("0\t1\t1\t")


def test_census_rejects_empty_range(capsys):
    assert run(["census", "--n", "3..1"]) == 1
    assert "error" in capsys.readouterr().err


def test_count_sortable(capsys):
    assert run(["count-sortable", "--n", "4"]) == 0
    assert capsys.readouterr().out == "14\n"
    assert run(["count-sortable", "--n", "4", "--t", "2"]) == 0
    assert capsys.readouterr().out == "22\n"


def test_render_emits_dot(capsys):
    assert run(["render", "--order", "2", "{1,2'|2,1'}"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert "1'" in out
    assert run(["render", "--dot", "--order", "2", "{1,2'|2,1'}"]) == 1  # DOT is the only format
    assert capsys.readouterr().err.startswith("usage error:")


def test_verify_smoke(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_domain_error_exits_one(capsys):
    assert run(["parse", "--order", "3", "{1,5}"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exits_one(capsys):
    assert run(["parse", "{1,2}"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert run(["frobnicate"]) == 1


@pytest.mark.skipif(shutil.which("diagramsort") is None, reason="script not on PATH")
def test_console_script_installed():
    proc = subprocess.run(
        ["diagramsort", "parse", "--order", "1", "{1,1'}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "{1,1'}\n"


@pytest.mark.parametrize("module", ["diagramsort", "diagramsort.cli"])
def test_python_dash_m_entry_points(module):
    env = {**os.environ, "PYTHONPATH": str(Path(diagramsort.__file__).resolve().parents[1])}

    def call(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env, timeout=60
        )

    ok = call("parse", "--order", "1", "{1,1'}")
    assert (ok.returncode, ok.stdout) == (0, "{1,1'}\n")
    bad = call("parse", "--order", "1", "{1,5}")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:")
