"""Output gate for the sort kernel and the census counter: one SHA-256 per output kind.

Usage: python3 tests/digest.py <src-dir> [<other-src-dir>]

With one source tree, imports ``diagramsort`` from <src-dir> (the
generators come from ``reference.py`` beside this file) and prints one
line per output kind:

- ``sort``: ``sort_diagram`` images;
- ``trace``: what ``sort --trace`` prints, the step lines then the image,
  from the CLI's own sort handler;
- ``structural``: ``_structural_failure`` reasons;
- ``decompose``: ``decompose`` results (the chosen block's nodes, read
  from the padded block, then left, middles, right, padded block);
- ``census``: ``(n, row.sortable, row.states)`` from the public
  ``census_stretch_sortable(n)`` for n = 0..30 and 40, a fresh table
  each; it names no private counter, so trees that rename one compare.

The diagram inputs are every diagram of order <= 5 (order <= 4 for
``decompose``), then for every diagram kind 1,500 seeded ``sparse_diagram``
inputs, ``chain_diagram`` with every base/plant pair at n = 30 and 240,
75 ``common_point_diagram`` inputs, seeded permutations of 64, 256 and
1000 embedded with ``embed_permutation``, 15 ``sparse_diagram`` inputs
shaped like the benchmark's large random diagrams (n = 32..256, about
2*sqrt(n) blocks), 60 ``one_item_cluster_diagram`` inputs, whose
top-overlap clusters each hold one block, top-only blocks among them, and
``cluster_chain_diagram`` at 30 and 60 clusters, whose 4-block clusters
each send two blocks into the long subtree; ``structural`` also reads 300
seeded structural candidates, whose walks get past the shape test.
With two trees, runs each in its own subprocess and prints one line per
kind, ``same`` or ``differs`` with both digests, and exits 1 on any
difference: a change that keeps every output prints ``same`` five times.
``digest.expected`` beside this file holds the five lines of the committed
source (the same under Python 3.10 and 3.11); CI diffs one tree's output
against it.
Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import subprocess
import sys
from pathlib import Path


def _seeded(reference):
    from diagramsort.core import embed_permutation

    rng = random.Random(2024)
    for _ in range(1500):
        yield reference.sparse_diagram(rng, rng.randint(5, 24), rng.randint(2, 12))
    for n in (30, 240):
        for base in ("decreasing", "increasing"):
            for plant in (None, "root", "middle", "leaf"):
                yield reference.chain_diagram(rng, n, base, plant)
    for _ in range(75):
        yield reference.common_point_diagram(rng, rng.randint(5, 64))
    rng = random.Random(2026)
    for n in (64, 256, 1000):
        yield embed_permutation(rng.sample(range(1, n + 1), n))
    for n in range(32, 257, 16):
        yield reference.sparse_diagram(rng, n, round(2 * n**0.5))
    for _ in range(60):
        yield reference.one_item_cluster_diagram(rng, rng.randint(2, 120))
    for clusters in (30, 60):
        yield reference.cluster_chain_diagram(clusters)


def _candidates(reference):
    rng = random.Random(2025)
    for _ in range(100):
        for mode in ("scatter", "avoid", "swap"):
            yield reference.structural_candidate(rng, rng.randint(4, 40), mode)


def _compare(trees: list[str]) -> int:
    """Digest each tree in a subprocess of its own; 1 if any kind differs or a run fails."""
    runs = [subprocess.Popen([sys.executable, __file__, tree], stdout=subprocess.PIPE, text=True) for tree in trees]
    outputs = [run.communicate()[0].splitlines() for run in runs]
    if any(run.returncode for run in runs):
        return 1
    differs = 0
    for first, second in zip(*outputs):
        kind, digest, _ = first.split(" ", 2)
        other = second.split(" ", 2)[1]
        differs += first != second
        print(f"{kind} {'same' if first == second else 'differs'} {digest} {other}")
    return 1 if differs else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return _compare(argv)
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(Path(__file__).resolve().parent)]
    import reference
    from diagramsort.analysis import census_stretch_sortable
    from diagramsort.cli import _cmd_sort
    from diagramsort.core import enumerate_diagrams, format_diagram
    from diagramsort.sorting import _structural_failure, decompose, sort_diagram

    def trace(d):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _cmd_sort(argparse.Namespace(diagram=format_diagram(d), order=d.order, trace=True))
        return out.getvalue().splitlines()

    def split(d):
        if d.propagation_number() == 0:
            return ["no propagating block"]
        dec = decompose(d)
        chosen = next(nodes for nodes in dec.padded_block.block_sets() if len(nodes) > 1)  # alone in padded_block
        return [repr(sorted(chosen)), *map(format_diagram, (dec.left, *dec.middles, dec.right, dec.padded_block))]

    small = [d for n in range(6) for d in enumerate_diagrams(n)]
    seeded = list(_seeded(reference))
    kinds = {
        "sort": (lambda d: [format_diagram(sort_diagram(d))], small + seeded),
        "trace": (trace, small + seeded),
        "structural": (lambda d: [str(_structural_failure(d))], small + seeded + list(_candidates(reference))),
        "decompose": (split, [d for d in small if d.order <= 4] + seeded),
    }
    for kind, (output, inputs) in kinds.items():
        h = hashlib.sha256()
        for d in inputs:
            h.update("\n".join([format_diagram(d), *output(d), ""]).encode())
        print(f"{kind} {h.hexdigest()} ({len(inputs)} inputs)")
    census = [(n, (row := census_stretch_sortable(n)).sortable, row.states) for n in (*range(31), 40)]
    print(f"census {hashlib.sha256(repr(census).encode()).hexdigest()} ({len(census)} orders)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
