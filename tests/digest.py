"""Output gate for the sort kernel: one SHA-256 per output kind over fixed inputs.

Usage: python3 tests/digest.py <src-dir>

Imports ``diagramsort`` from <src-dir> (the generators come from
``reference.py`` beside this file) and prints one line per output kind:

- ``sort``: ``sort_diagram`` images;
- ``trace``: what ``sort --trace`` prints, the step lines then the image;
- ``structural``: ``_structural_failure`` reasons;
- ``decompose``: ``decompose`` results (block, left, middles, right,
  padded block).

The inputs are every diagram of order <= 5 (order <= 4 for
``decompose``), then for every kind 1,500 seeded ``sparse_diagram``
inputs, ``chain_diagram`` with every base/plant pair at n = 30 and 240,
and 75 ``common_point_diagram`` inputs; ``structural`` also reads 300
seeded structural candidates, whose walks get past the shape test.
Run it on two checkouts and compare the lines: a change that keeps every
output prints the same digests.  Uses only the standard library.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path


def _seeded(reference):
    rng = random.Random(2024)
    for _ in range(1500):
        yield reference.sparse_diagram(rng, rng.randint(5, 24), rng.randint(2, 12))
    for n in (30, 240):
        for base in ("decreasing", "increasing"):
            for plant in (None, "root", "middle", "leaf"):
                yield reference.chain_diagram(rng, n, base, plant)
    for _ in range(75):
        yield reference.common_point_diagram(rng, rng.randint(5, 64))


def _candidates(reference):
    rng = random.Random(2025)
    for _ in range(100):
        for mode in ("scatter", "avoid", "swap"):
            yield reference.structural_candidate(rng, rng.randint(4, 40), mode)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(Path(__file__).resolve().parent)]
    import reference
    from diagramsort.cli import _trace_line
    from diagramsort.core import enumerate_diagrams, format_diagram
    from diagramsort.sorting import _structural_failure, decompose, sort_diagram, sort_diagram_traced

    def trace(d):
        image, events = sort_diagram_traced(d)
        texts: dict = {}
        return [*(_trace_line(event, texts) for event in events), format_diagram(image)]

    def split(d):
        if d.propagation_number() == 0:
            return ["no propagating block"]
        dec = decompose(d)
        return [repr(sorted(dec.block)), *map(format_diagram, (dec.left, *dec.middles, dec.right, dec.padded_block))]

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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
