"""Benchmark for the diagramsort library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload's fixed input list is run in untraced
passes for about ``--seconds`` seconds and the end-to-end metrics are
reported.  With ``--trace 1`` an untraced and a traced pass are compared,
the per-layer probes run, and the spans are written under
``perfbench/out/``.  ``--smoke`` shrinks every size for a quick self-test.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import probes
import workloads
from tracing import Tracer, direct

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed in bursts of this many repeats, one burst before the
# first pass and one after a pass whenever this long has gone by since the
# last burst.
SETUP_REPEATS = 5
SETUP_INTERVAL = 2.0
# Every operation short enough to repeat is timed at least this often.
MIN_PASSES = 5
# Traced runs compare untraced and traced passes for at most this long.
TRACE_PAIR_SECONDS = 10.0


class Raised:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


UNVERIFIED = object()


def import_library():
    """Import diagramsort afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "diagramsort" or m.startswith("diagramsort.")]:
        del sys.modules[name]
    ds = importlib.import_module("diagramsort")
    if Path(ds.__file__).resolve().parent != SRC / "diagramsort":
        raise ImportError(f"diagramsort was imported from {ds.__file__}, not from {SRC}")
    return ds


class Cores:
    """Moves this process to the next of its allowed cores, turn by turn.

    On a shared host each core is slowed by outside load in its own
    stretches of up to a minute.  Timed passes that take turns on the cores
    give every operation, and the set-up bursts between passes, timings on
    each of them, so the fastest does not hinge on one core's load.  The
    process still runs one thing at a time.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.turn = 0

    def next(self) -> int:
        """Move to the next core; its index in ``allowed``, 0 if none."""
        index = self.turn % len(self.allowed) if self.allowed else 0
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {self.allowed[index]})
        self.turn += 1
        return index

    def restore(self) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, self.allowed)


def setup(name: str, seed: int, smoke: bool):
    """Import the library and build the inputs SETUP_REPEATS times; median time."""
    times: list[float] = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ds = import_library()
        workload = workloads.build(ds, name, seed, smoke)
        times.append(time.perf_counter() - start)
        # Free the replaced modules now, so the peak memory does not
        # depend on how many repeats ran.
        gc.collect()
    return ds, workload, statistics.median(times)


def run_pass(ops, tracer: Tracer | None):
    """Run every operation once; returns (wall seconds, latencies, results)."""
    call = tracer.call if tracer else direct
    # Start every pass from the same heap, so collector pauses fall alike.
    gc.collect()
    latencies = []
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span(f"op.{op.kind}", new_op=True):
                    result = op.run(call)
            else:
                result = op.run(call)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = Raised(exc)
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, latencies, results


class Checker:
    """Checks pass outputs; later passes must reproduce a verified output."""

    def __init__(self, ops):
        self.ops = ops
        self.verified: list = [UNVERIFIED] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, results, index=None) -> None:
        """Check ``results``; ``index`` gives each one's operation number."""
        for i, result in zip(index or range(len(results)), results):
            op = self.ops[i]
            self.attempted += 1
            ok = False
            if isinstance(result, Raised):
                self.errors.append(f"op {i} ({op.kind}) raised {result.error}")
            else:
                try:
                    key = op.key(result)
                    if self.verified[i] is UNVERIFIED:
                        ok = op.check(result)
                        if ok:
                            self.verified[i] = key
                    else:
                        ok = key == self.verified[i]
                except Exception as exc:  # a malformed output is a failed check
                    self.errors.append(f"op {i} ({op.kind}) check raised {type(exc).__name__}: {exc}")
                if not ok:
                    self.errors.append(f"op {i} ({op.kind}) output failed its check")
            self.failed += not ok


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seconds: float, checker: Checker, setup_burst) -> tuple[list[list[float]], list[float]]:
    """Time every operation repeatedly for about ``seconds``; its latencies.

    The first pass runs every operation.  Later passes rerun those that
    took at most a quarter of ``seconds`` the first time, which keeps a
    run bounded if some operation becomes very slow: at least
    MIN_PASSES - 1 more times, and then while the next pass fits in the
    time left.  Between passes, every SETUP_INTERVAL seconds, set-up is
    timed again by ``setup_burst``; the burst medians are returned too.
    """
    cores = Cores()
    start = last_burst = time.perf_counter()
    bursts = []
    try:
        cores.next()
        _, first, results = run_pass(workload.ops, None)
        checker.check(results)
        samples = [[t] for t in first]
        repeat = [i for i, t in enumerate(first) if t <= seconds / 4]
        ops = [workload.ops[i] for i in repeat]
        last = sum(first[i] for i in repeat)
        passes = 1
        while repeat and (passes < MIN_PASSES or time.perf_counter() - start + last <= seconds):
            cores.next()
            last, lat, results = run_pass(ops, None)
            checker.check(results, repeat)
            for i, t in zip(repeat, lat):
                samples[i].append(t)
            passes += 1
            if time.perf_counter() - last_burst >= SETUP_INTERVAL:
                bursts.append(setup_burst())
                last_burst = time.perf_counter()
    finally:
        cores.restore()
    return samples, bursts


def end_to_end(workload, seconds: float, setup_burst, first_burst: float, checker: Checker) -> dict:
    samples, bursts = measure(workload, seconds, checker, setup_burst)
    # Each operation's latency is its fastest timing in the run.  On a
    # shared machine outside load can slow a whole pass by half; the
    # fastest of several timings is the one least disturbed by it, where
    # a median follows the load.
    best = [min(times) for times in samples]
    print(f"operations: {len(best)}, timings: {sum(map(len, samples))}, "
          f"slowest over fastest pass-summed: {sum(map(max, samples)) / sum(best):.3f}")
    return {
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1e3 * statistics.median(best), "ms"),
        "op_p90_ms": (1e3 * percentile(best, 90), "ms"),
        # Set-up is timed in bursts through the run, like the operations,
        # and the least disturbed burst's median is reported.
        "setup_s": (min([first_burst, *bursts]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def input_properties(ds, workload) -> list[dict]:
    """Order, block count, propagation number and split steps of each input."""
    rows = []
    for op in workload.ops:
        d = op.diagram
        if d is None:
            continue
        row = {
            "kind": op.kind,
            "order": d.order,
            "blocks": len(d.blocks),
            "propagation": sum(1 for t, b in d.blocks if t and b),
        }
        if workload.name == "sort-large":
            try:
                row["split_steps"] = len(ds.sort_diagram_traced(d)[1])
            except Exception:  # the timed pass has already counted this input as failed
                row["split_steps"] = None
        rows.append(row)
    return rows


def per_layer(ds, workload, seed: int, seconds: float, smoke: bool, env: dict, checker: Checker) -> tuple[dict, int, int]:
    tracer = Tracer()
    plain, traced = [], []
    census_rows: dict = {}
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < min(seconds, TRACE_PAIR_SECONDS):
        wall, lat, results = run_pass(workload.ops, None)
        plain.append(wall)
        checker.check(results)
        if workload.name == "census" and not census_rows:
            census_rows = {getattr(r, "n", None): (r, t) for r, t in zip(results, lat)}
        wall, _, results = run_pass(workload.ops, tracer)
        traced.append(wall)
        checker.check(results)

    probe = probes.Probes(ds, tracer, seed, smoke)
    sections = (
        lambda: probe.small_orders(workload.masks),
        lambda: probe.census(census_rows),
        probe.sorting,
        probe.algebra,
    )
    for section in sections:
        try:
            section()
        except Exception as exc:  # a probe that raises is counted, and its metrics go missing
            probe.expect(False)
            checker.errors.append(f"probe raised {type(exc).__name__}: {exc}")

    metrics = dict(probe.metrics)
    for layer, value in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (value, "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")

    properties = input_properties(ds, workload)
    if properties:
        summary = {k: sum(r[k] or 0 for r in properties) for k in properties[0] if k != "kind"}
        print(f"input totals over {len(properties)} inputs: {summary}")
    path = OUT / f"trace-{workload.name}-seed{seed}{'-smoke' if smoke else ''}.json"
    tracer.write(path, {"env": env, "metrics": metrics, "inputs": properties})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics, probe.attempted, probe.failed


def environment(workload: str, seed: int, smoke: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "diagramsort" / "__init__.py").is_file():
        print(f"error: no diagramsort package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        ds, workload, setup_s = setup(args.workload, args.seed, args.smoke)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.smoke)
    print("env: " + json.dumps(env))
    checker = Checker(workload.ops)
    if args.trace:
        metrics, attempted, failed = per_layer(ds, workload, args.seed, args.seconds, args.smoke, env, checker)
    else:
        def setup_burst():
            return setup(args.workload, args.seed, args.smoke)[2]

        metrics = end_to_end(workload, args.seconds, setup_burst, setup_s, checker)
        attempted = failed = 0
    attempted += checker.attempted
    failed += checker.failed

    for line in checker.errors[:20]:
        print("check: " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{'failed_frac':<44} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
