"""Time the single calls of the ROADMAP's baseline table, once each.

    python3 perfbench/reconcile.py

These are the one-off figures the benchmark's workloads replace; the
script exists so the two can be compared on the same machine.  It takes
about a minute and a half, most of it the order-5 census and the sort of
the decreasing permutation of order 1000.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import diagramsort as ds  # noqa: E402
import workloads  # noqa: E402


def timed(label: str, fn, *args) -> None:
    start = time.perf_counter()
    fn(*args)
    print(f"{label:<52} {time.perf_counter() - start:10.4f} s", flush=True)


def main() -> None:
    rng = random.Random(0)
    timed("census 5, brute force", ds.census_stretch_sortable, 5)
    timed("census 4", ds.census_stretch_sortable, 4)
    timed("enumerate_diagrams(5)", lambda: sum(1 for _ in ds.enumerate_diagrams(5)))
    order5 = list(ds.enumerate_diagrams(5))
    timed("is_sss_theorem over all of order 5", lambda: [ds.is_sss_theorem(d) for d in order5])
    for n in (32, 256):
        d = ds.PartitionDiagram(n, workloads.large_masks(rng, n))
        timed(f"sort_diagram, random diagram, n = {n}", ds.sort_diagram, d)
    a, b = (ds.PartitionDiagram(256, workloads.large_masks(rng, 256)) for _ in range(2))
    timed("compose, random pair, n = 256", ds.compose, a, b)
    word = tuple(range(1000, 0, -1))
    timed("sort of the decreasing permutation, n = 1000", ds.sort_diagram, ds.embed_permutation(word))
    timed("sort_word on the same permutation", ds.sort_word, word)


if __name__ == "__main__":
    main()
