"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sort-large --seeds 1-10

For every metric it prints the median, the quartiles and the distance
between the quartiles as a share of the median, the figure a metric's
bound in BENCHMARK.json is compared with.  Runs are made one after
another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="a range such as 1-10")
    parser.add_argument("--seconds", default=str(SPEC["run_seconds"]), help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else float("nan")}
    if args.json:
        print(json.dumps({"workload": args.workload, "seeds": args.seeds, "failed": failed, "metrics": summary}))
    else:
        print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed operations")
        for name, s in summary.items():
            print(f"  {name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} {s['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
