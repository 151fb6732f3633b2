"""End-to-end runs of every subcommand through the in-process entry point."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

import diagramsort
import diagramsort.cli as cli_module
import diagramsort.verification as verification_module
from diagramsort.analysis import CensusRow, VerificationError, _bell, census_stretch_sortable
from diagramsort.cli import run
from diagramsort.core import (
    AlgebraElement,
    PartitionDiagram,
    XiPoly,
    algebra_multiply,
    canonicalize,
    embed_permutation,
    enumerate_diagrams,
    format_diagram,
    parse_diagram,
)
from diagramsort.sorting import odot_assemble, sort_word
from diagramsort.stretch import SetComposition, delta_k
from diagramsort.verification import SORTABLE_COUNTS, CheckResult, run_checks

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
    # M1 is a bottom-only group, M2 the propagating group, M3 a top-only group.
    assert run(["sort", "--trace", "--order", "5", "{1,4,1',5'|2,4'|3,5|2',3'}"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "B={1',5'} L=[] M1=[{2',3'}] M2=[{2,4'}] M3=[{3,5}] R=[]",
        "B={4'} L=[] R=[]",
        "{1,4'|2,3,1',5'|4,5|2',3'}",
    ]


def test_sort_trace_formats_each_block_once(capsys, monkeypatch):
    # 299 trace lines list 44,850 blocks in all; each block's text is built once.
    calls = []
    real_format = cli_module._format_block
    monkeypatch.setattr(cli_module, "_format_block", lambda block: calls.append(block) or real_format(block))
    assert run(["sort", "--trace", "--order", "300", format_diagram(embed_permutation(range(1, 301)))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 301 and lines[0].startswith("B={300'} L=[{1,1'},{2,2'},")
    assert len(calls) == len(set(calls)) <= 300


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
        "structural_failure=none\n"
    )


def test_check_on_unsortable_diagram(capsys):
    assert run(["check", "--order", "2", "{1,2|1',2'}"]) == 0
    out = capsys.readouterr().out
    assert "sortable_direct=false" in out
    assert "sortable_structural=false" in out
    assert out.endswith("structural_failure=non-propagating block\n")


@pytest.mark.parametrize(
    "order, text, reason",
    [
        (3, "{1,2,1'|3,2',3'}", "unequal top and bottom sizes"),
        (3, "{1,2,1',3'|3,2'}", "non-interval bottom"),
        (3, "{1,2'|2,3'|3,1'}", "split step 1: factor order broken"),  # 231
        (4, "{1,2'|2,3'|3,1'|4,4'}", "split step 2: factor order broken"),  # 2314
    ],
)
def test_check_names_structural_failure(capsys, order, text, reason):
    assert run(["check", "--order", str(order), text]) == 0
    out = capsys.readouterr().out
    assert "sortable_direct=false\nsortable_structural=false\n" in out
    assert out.endswith(f"structural_failure={reason}\n")


def test_check_exits_two_when_predicates_disagree(monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "_structural_failure", lambda d: None)
    assert run(["check", "--order", "2", "{1,2|1',2'}"]) == 2
    assert capsys.readouterr().err.startswith("verification failure: predicates disagree")


def test_census_single_order(capsys):
    assert run(["census", "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("# sortable counts are computed, not from paper")
    assert captured.out.startswith(f"1\t2\t{SORTABLE_COUNTS[1]}\t")


def test_census_json_rows(capsys):
    assert run(["census", "--n", "1..3", "--json", "--check"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # --check adds the oracle's scan but leaves every field except millis as without it
    assert [(r["n"], r["total"], r["sortable"], r["candidates"], r["states"]) for r in rows] == [
        (n, total, SORTABLE_COUNTS[n], candidates, states)
        for n, total, candidates, states in ((1, 2, 1, 2), (2, 15, 3, 4), (3, 203, 13, 7))
    ]
    assert run(["census", "--n", "3", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["total"], row["sortable"], row["candidates"], row["states"]) == (203, SORTABLE_COUNTS[3], 13, 7)


def test_census_order_zero(capsys):
    assert run(["census", "--n", "0"]) == 0
    assert capsys.readouterr().out.startswith(f"0\t1\t{SORTABLE_COUNTS[0]}\t")


def test_census_rejects_empty_range(capsys):
    assert run(["census", "--n", "3..1"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["census", "--deep"]) == 1  # spelled --n lo..5
    assert capsys.readouterr().err.startswith("usage error:")


def test_census_rejects_nonpositive_jobs(capsys):
    for args in (["--n", "3", "--jobs", "0"], ["--n", "2", "--jobs", "-3", "--check"]):
        assert run(["census", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: jobs must be positive\n"  # no header before it


def test_census_check_exits_two_on_verification_error(monkeypatch, capsys):
    def failing(n, count, check=False, jobs=1):
        raise VerificationError(f"oracle disagrees at order {n}")

    monkeypatch.setattr(cli_module, "_census_row", failing)
    assert run(["census", "--n", "2", "--check"]) == 2
    assert "verification failure: oracle disagrees at order 2" in capsys.readouterr().err


def test_census_range_reads_one_table(monkeypatch, capsys):
    tables = []
    real = cli_module._census_table

    def spy():
        tables.append(real())
        return tables[-1]

    monkeypatch.setattr(cli_module, "_census_table", spy)
    assert run(["census", "--n", "5..9", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(tables) == 1
    for row in rows:
        del row["millis"]
    assert rows == [
        {k: v for k, v in census_stretch_sortable(n)._asdict().items() if k != "elapsed"} for n in range(5, 10)
    ]


def test_census_streams_a_huge_range(monkeypatch, capsys):
    orders = cli_module._parse_order_range("1..1000000000000")
    assert orders == range(1, 10**12 + 1)  # a range object: no list of 10**12 orders is built
    real = cli_module._census_row

    def stop_at_three(n, count, check=False, jobs=1):
        if n == 3:
            raise ValueError("stopped at order 3")
        return real(n, count, check=check, jobs=jobs)

    monkeypatch.setattr(cli_module, "_census_row", stop_at_three)
    assert run(["census", "--n", "1..1000000000000"]) == 1
    captured = capsys.readouterr()
    assert [line.split("\t")[:3] for line in captured.out.splitlines()] == [["1", "2", "1"], ["2", "15", "3"]]
    assert captured.err.endswith("\nerror: stopped at order 3\n")


def test_ctrl_c_keeps_the_printed_rows_and_exits_130(monkeypatch, capsys):
    real = cli_module._census_row

    def interrupted_at_three(n, count, check=False, jobs=1):
        if n == 3:
            raise KeyboardInterrupt  # as Ctrl-C raises it in the main thread
        return real(n, count, check=check, jobs=jobs)

    monkeypatch.setattr(cli_module, "_census_row", interrupted_at_three)
    assert run(["census", "--n", "1..4"]) == 130
    captured = capsys.readouterr()
    assert [line.split("\t")[:3] for line in captured.out.splitlines()] == [["1", "2", "1"], ["2", "15", "3"]]
    assert captured.err.endswith("\ninterrupted\n")
    assert "Traceback" not in captured.err


def _group_members(pgid: int) -> list[int]:
    """The processes of a process group, read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            if int(stat.read_text().rpartition(")")[2].split()[2]) == pgid:
                members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(os.environ.get("DIAGRAMSORT_DEEP") != "1", reason="set DIAGRAMSORT_DEEP=1 to interrupt a census scan")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: _map_chunks starts no pool")
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to see the workers")
def test_ctrl_c_with_workers_exits_130_and_leaves_none_running():
    # Ctrl-C in a terminal sends SIGINT to the whole foreground group, workers too.
    env = {**os.environ, "PYTHONPATH": str(Path(diagramsort.__file__).resolve().parents[1])}
    args = [sys.executable, "-m", "diagramsort", "census", "--check", "--n", "6", "--jobs", "2"]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        header = proc.stderr.readline()
        assert header == "# sortable counts are computed, not from paper\n"
        time.sleep(2)
        assert len(_group_members(proc.pid)) > 1  # the pool is up
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert (out, err) == ("", "interrupted\n")
        deadline = time.monotonic() + 30
        while True:  # orphaned workers are reaped by init, not by this process
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"left in the group: {_group_members(proc.pid)}"
            time.sleep(0.1)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_out_of_memory_exits_one(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError  # as a list too large to allocate raises it: no message

    monkeypatch.setattr(cli_module, "_cmd_stretch", exhausted)
    assert run(["stretch", "--alpha", "1", "--k", "1000000000000", "--order", "1", "{1,1'}"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")


def test_huge_order_exits_one(capsys):
    huge = "99999999999999999999"  # 1 << huge raises OverflowError before it allocates anything
    for argv in (
        ["parse", "--order", huge, "{}"],
        ["sort", "--order", huge, "{}"],
        ["compose", "--order", huge, "{}", "{}"],
        ["check", "--order", huge, "{}"],
        ["render", "--order", huge, "{}"],
        ["stretch", "--alpha", "1", "--k", huge, "--order", "1", "{1,1'}"],
    ):
        assert run(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: order too large\n"), argv


def test_count_sortable(capsys):
    assert run(["count-sortable", "--n", "4"]) == 0
    assert capsys.readouterr().out == "14\n"
    assert run(["count-sortable", "--n", "4", "--t", "2"]) == 0
    assert capsys.readouterr().out == "22\n"
    for n in ("0", "3"):
        assert run(["count-sortable", "--n", n, "--t", "-1"]) == 1
        assert "t must be nonnegative" in capsys.readouterr().err


def test_brute_force_scans_over_the_cap_fail_at_once(monkeypatch, capsys):
    # The scan is named with its size before anything is scanned or printed;
    # no scan, census table or worker starts here.
    def refuse(*args, **kwargs):
        raise AssertionError("a scan started")

    for name in ("count_t_stack_sortable", "_census_row", "_census_table"):
        monkeypatch.setattr(cli_module, name, refuse)
    huge = "1" + "0" * 20
    perms = "error: the scan of 11! = 39916800 permutations is over the cap of 5000000\n"
    bell = "error: the scan of Bell(14) = 190899322 diagrams is over the cap of 5000000\n"
    for argv, err in (
        (["count-sortable", "--n", "11"], perms),
        (["count-sortable", "--n", "11", "--t", "3"], perms),
        (["count-sortable", "--n", huge], f"error: the scan of {huge}! permutations is over the cap of 5000000\n"),
        (["census", "--check", "--n", "7"], bell),
        (["census", "--check", "--n", "1..7", "--jobs", "2"], bell),
        (["census", "--check", "--n", f"3..{huge}"], f"error: the scan of Bell({2 * int(huge)}) diagrams is over the cap of 5000000\n"),
    ):
        assert run(argv) == 1, argv
        assert capsys.readouterr() == ("", err), argv
    # At the cap the scans start; stubs stand in for them.
    assert factorial(10) <= cli_module.SCAN_CAP < factorial(11)
    assert _bell(12) <= cli_module.SCAN_CAP < _bell(14)
    monkeypatch.setattr(cli_module, "count_t_stack_sortable", lambda n, t: f"scanned {n}!")
    assert run(["count-sortable", "--n", "10"]) == 0
    assert capsys.readouterr().out == "scanned 10!\n"
    rows = []
    monkeypatch.setattr(cli_module, "_census_table", lambda: None)
    monkeypatch.setattr(cli_module, "_census_row", lambda n, count, check, jobs: rows.append((n, check)) or CensusRow(n, 0, 0, 0.0))
    assert run(["census", "--check", "--n", "5..6"]) == 0
    # Without --check a census scans nothing, so no cap applies.
    assert run(["census", "--n", "7"]) == 0
    assert rows == [(5, True), (6, True), (7, False)]


def test_render_emits_dot(capsys):
    assert run(["render", "--order", "2", "{1,2'|2,1'}"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert "1'" in out
    assert run(["render", "--dot", "--order", "2", "{1,2'|2,1'}"]) == 1  # DOT is the only format
    assert capsys.readouterr().err.startswith("usage error:")


def test_verify_smoke(monkeypatch, capsys):
    # The suite itself runs once, in test_acceptance criterion 6; here only the reporting.
    calls = []
    results = [CheckResult("alpha", True, "2 things", 0.5), CheckResult("beta", True, "3 things", 0.25)]

    def recording(deep=False, seed=2024):
        calls.append((deep, seed))
        return results

    monkeypatch.setattr(cli_module, "run_checks", recording)
    assert run(["verify"]) == 0
    assert capsys.readouterr().out == (
        "ok   alpha: 2 things (0.50s)\nok   beta: 3 things (0.25s)\nall 2 checks passed\n"
    )
    results[1] = CheckResult("beta", False, "count off", 0.25)
    assert run(["verify", "--deep", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert "FAIL beta: count off (0.25s)" in captured.out
    assert captured.err == "1 of 2 checks failed\n"
    assert calls == [(False, 2024), (True, 7)]


def test_verify_survives_a_check_that_raises(monkeypatch, capsys):
    # Every check stubbed to pass at once but one that raises; the real suite runs in test_acceptance.
    for name in [name for name in vars(verification_module) if name.startswith("_check_")]:
        monkeypatch.setattr(verification_module, name, lambda *args: "stubbed")

    def raising(exc):
        def check():
            raise exc

        return check

    monkeypatch.setattr(verification_module, "_check_embedding", raising(RuntimeError("embedding broke")))
    monkeypatch.setattr(verification_module, "_check_enumeration", raising(KeyError(3)))
    # A check's own verdict is an AssertionError from _require and prints without its type.
    monkeypatch.setattr(verification_module, "_check_monotone", raising(AssertionError("counts fell")))
    results = run_checks()
    assert len(results) == 18
    assert [(r.name, r.ok, r.detail) for r in results if not r.ok] == [
        ("embedding", False, "RuntimeError: embedding broke"),
        ("enumeration-counts", False, "KeyError: 3"),
        ("t-sortable-monotone", False, "counts fell"),
    ]
    assert run(["verify"]) == 2
    captured = capsys.readouterr()
    assert "FAIL embedding: RuntimeError: embedding broke (" in captured.out
    assert "FAIL enumeration-counts: KeyError: 3 (" in captured.out
    assert "FAIL t-sortable-monotone: counts fell (" in captured.out
    assert captured.err == "3 of 18 checks failed\n"


def _exit_and_error(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: _exit_and_error("census", "--n=-1..2"), (1, "error: orders must be nonnegative\n")),
        (lambda: _exit_and_error("census", "--n=-1"), (1, "error: orders must be nonnegative\n")),
        (lambda: _exit_and_error("census", "--n=1..x"), (1, "error: bad order range '1..x'\n")),
        (lambda: _exit_and_error("census", "--n=1.."), (1, "error: bad order range '1..'\n")),
        (lambda: _exit_and_error("census", "--n="), (1, "error: bad order range ''\n")),
        (lambda: _exit_and_error("census", "--n=1_0..1_1"), (1, "error: bad order range '1_0..1_1'\n")),
        (lambda: _exit_and_error("census", "--n=+1"), (1, "error: bad order range '+1'\n")),
        (
            lambda: _exit_and_error("stretch", "--alpha", "1|\u0662", "--k", "2", "--order", "2", "{1,1'}"),
            (1, "error: bad part '\u0662' in set composition text\n"),  # Arabic-Indic 2
        ),
        (lambda: _exit_and_error("count-sortable", "--n", "-1"), (1, "error: n must be nonnegative\n")),
        (lambda: sort_word((0, 1)), ValueError("letters must be positive")),
        (lambda: PartitionDiagram(-1, ()), ValueError("order must be nonnegative")),
        (lambda: canonicalize([], -1), ValueError("order must be nonnegative")),
        (lambda: canonicalize([{1}], -1), ValueError("order must be nonnegative")),
        (lambda: delta_k([], -1), ValueError("order must be nonnegative")),
        (lambda: odot_assemble([], -1), ValueError("order must be nonnegative")),
        (lambda: list(enumerate_diagrams(-1)), ValueError("order must be nonnegative")),
        (lambda: XiPoly.xi_power(-1), ValueError("exponent must be nonnegative")),
        (
            lambda: algebra_multiply(AlgebraElement(1, {}), AlgebraElement(2, {})),
            ValueError("elements must have the same order"),
        ),
        (lambda: SetComposition.parse("1||2"), ValueError("empty part in set composition text")),
        (lambda: SetComposition.parse("  ").parts, ()),
        (lambda: SetComposition.parse("1_0"), ValueError("bad part '1_0' in set composition text")),
        (lambda: SetComposition.parse("\u0663"), ValueError("bad part '\u0663' in set composition text")),
        (lambda: SetComposition.parse("1|+2"), ValueError("bad part '+2' in set composition text")),
        (lambda: eval(repr(d := parse_diagram(EX_LEFT, 5)), {"parse_diagram": parse_diagram}) == d, True),
        (lambda: repr(XiPoly([1, 0, 2])), "XiPoly((1, 0, 2))"),
        (lambda: repr(AlgebraElement(2, {})), "AlgebraElement(2, {})"),
        (lambda: repr(AlgebraElement(1, {parse_diagram("{1,1'}", 1): XiPoly([3, 2])})), "(3 + 2*xi)*{1,1'}"),
        (lambda: XiPoly() * XiPoly([1]) == XiPoly(), True),
        (lambda: str(d := parse_diagram(EX_LEFT, 5)) == format_diagram(d), True),
        (
            lambda: [
                parse_diagram(EX_LEFT, 5) == "x",
                XiPoly([1]) == 1,
                AlgebraElement(1, {}) == 0,
                SetComposition.parse("1|2") == "1|2",
            ],
            [False] * 4,
        ),
        (lambda: hash(XiPoly([1, 2])) == hash(XiPoly((1, 2))), True),
        (lambda: hash(SetComposition.parse("2,1|3")) == hash(SetComposition.parse("1,2|3")), True),
    ],
    ids=[
        "census-negative-range", "census-negative-order", "census-bad-range-end", "census-open-range",
        "census-empty-order", "census-underscore-range", "census-plus-order", "stretch-unicode-digit-part",
        "count-sortable-negative-n", "sort-word-zero-letter",
        "diagram-negative-order", "canonicalize-negative-order", "canonicalize-negative-order-before-nodes",
        "delta-negative-order", "odot-negative-order", "enumerate-negative-order", "xi-negative-power", "algebra-order-mismatch", "composition-empty-part",
        "composition-blank-text", "composition-underscore-int", "composition-unicode-digit",
        "composition-plus-int", "diagram-repr-round-trip", "xipoly-repr", "zero-element-repr",
        "element-repr", "xipoly-times-zero", "diagram-str", "foreign-equality", "xipoly-hash", "composition-hash",
    ],
)
def test_boundary_paths(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected


def test_domain_error_exits_one(capsys):
    assert run(["parse", "--order", "3", "{1,5}"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert run(["stretch", "--alpha", "1,1|2", "--k", "2", "--order", "2", "{1,1'|2,2'}"]) == 1
    assert capsys.readouterr().err.startswith("error: repeated integer 1")
    assert run(["parse", "--order", "2", "{\u0661,\u0662'}"]) == 1  # Arabic-Indic digits
    assert capsys.readouterr().err.startswith("error: bad node token")
    assert run(["stretch", "--alpha", "True|2", "--k", "2", "--order", "2", "{1,1'|2,2'}"]) == 1
    assert capsys.readouterr().err.startswith("error: bad part 'True'")  # the text never yields a bool
    assert run(["parse", "--order", "-1", "{1}"]) == 1
    assert capsys.readouterr().err == "error: order must be nonnegative\n"
    # k is checked before any part's mask is built; for 10**18 that mask would be a 10**18-bit integer.
    assert run(["stretch", "--alpha", "1000000000000000000", "--k", "1", "--order", "1", "{}"]) == 1
    assert capsys.readouterr().err == "error: k must be at least the largest index used\n"


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


def _mask_millis(line):
    """A census line with its millis column or field blanked; any other line as is."""
    return re.sub(r'"millis": \d+', '"millis": _', re.sub(r"^(\d+\t\d+\t\d+\t)\d+$", r"\g<1>_", line))


def test_readme_console_examples(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []  # (argv, expected stdout lines)
    for block in re.findall(r"```console\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if line.startswith("$ diagramsort "):
                examples.append((shlex.split(line.removeprefix("$ diagramsort ")), []))
            else:
                examples[-1][1].append(line)
    assert len(examples) == 6
    for argv, expected in examples:
        assert run(argv) == 0, argv
        got = capsys.readouterr().out.splitlines()
        assert (argv, list(map(_mask_millis, got))) == (argv, list(map(_mask_millis, expected)))


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(DEMOS.parent / "src")}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_import_loads_no_heavy_modules():
    # Records are NamedTuples: dataclasses would pull in inspect, ast, dis and tokenize.
    env = {**os.environ, "PYTHONPATH": str(Path(diagramsort.__file__).resolve().parents[1])}
    code = (
        "import sys, diagramsort, diagramsort.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")
