"""The three workloads: seeded inputs, the timed operations, their checks.

Inputs are built only through names in ``diagramsort.__all__``
(``PartitionDiagram``, ``embed_permutation``, ``AlgebraElement``), so
private helpers can change without touching the benchmark.  Sizes are
fixed per workload; the seed chooses only the contents, which keeps the
work per run nearly the same from seed to seed.

An operation is one timed unit: ``run(call)`` makes the public call(s)
through ``call(name, fn, *args)``, which is the plain call in untraced
passes and a span in the traced one.  ``check(result)`` runs outside the
timed region and returns False on a wrong output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles


@dataclass
class Op:
    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], bool]
    # Reduces a result to what later passes must reproduce exactly.
    key: Callable[[Any], Any] = lambda r: r
    # The diagram whose shape drives the cost, for the input-property record.
    diagram: Any = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (order, blocks) mask lists at this workload's orders, for the
    # construction probe of the traced run.
    masks: list[tuple[int, list[tuple[int, int]]]]


def random_masks(rng: random.Random, n: int, blocks: int) -> list[tuple[int, int]]:
    """A random diagram of order n with exactly ``blocks`` blocks, as mask pairs.

    The first ``blocks`` nodes of a shuffled node list open one block
    each; every other node joins a block chosen uniformly.
    """
    nodes = list(range(2 * n))
    rng.shuffle(nodes)
    tops = [0] * blocks
    bottoms = [0] * blocks
    for i, node in enumerate(nodes):
        v = i if i < blocks else rng.randrange(blocks)
        if node < n:
            tops[v] |= 1 << node
        else:
            bottoms[v] |= 1 << (node - n)
    return list(zip(tops, bottoms))


def large_masks(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random diagram of large order n with about 2*sqrt(n) blocks.

    The block count is fixed by the order, which is about what a uniformly
    random restricted growth string gives, so the sorting work varies
    little from seed to seed.
    """
    return random_masks(rng, n, max(2, round(2 * n**0.5)))


def random_composition(rng: random.Random, items: list[int], parts: int) -> list[list[int]]:
    """Cut ``items`` into ``parts`` nonempty consecutive runs at random places."""
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    bounds = [0, *cuts, len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def candidate_masks(rng: random.Random, n: int, stretched_identity: bool) -> list[tuple[int, int]]:
    """A diagram passing the first three structural sortability conditions.

    Every block propagates with equally many top and bottom nodes, and the
    bottoms are consecutive intervals, n // 3 of them.  A stretched identity uses the same
    interval on top as well and is always sortable; otherwise the tops are
    a random ordered set partition with the matching sizes.
    """
    sizes = [len(r) for r in random_composition(rng, list(range(n)), max(1, n // 3))]
    tops = list(range(n))
    if not stretched_identity:
        rng.shuffle(tops)
    out = []
    lo = 0
    for size in sizes:
        bottom = ((1 << size) - 1) << lo
        top = bottom if stretched_identity else sum(1 << i for i in tops[lo : lo + size])
        out.append((top, bottom))
        lo += size
    return out


# --- census ----------------------------------------------------------------


def build_census(ds, rng: random.Random, smoke: bool) -> Workload:
    """census_stretch_sortable(n), n = 1..4, serially with the default check=False.

    Order 5 is timed by the traced probe instead: its one call takes 15-20 s,
    so it cannot be repeated within a run, and a single timing of it varied
    by a third between runs on a shared machine.  The census has no inputs
    but the order, so the seed only draws the diagrams the construction
    probe uses.
    """
    orders = range(1, 4 if smoke else 5)
    ops = [
        Op(
            kind="census",
            run=lambda call, n=n: call("analysis.census_stretch_sortable", ds.census_stretch_sortable, n),
            check=lambda row, n=n: oracles.check_census(row, n),
            key=lambda row: (row.n, row.total, row.sortable),
        )
        for n in orders
    ]
    masks = [(n, random_masks(rng, n, rng.randint(1, 2 * n))) for n in orders for _ in range(200)]
    return Workload("census", ops, masks)


# --- sort-large --------------------------------------------------------------


def build_sort_large(ds, rng: random.Random, smoke: bool) -> Workload:
    """Sorting at large order: random diagrams, permutations, candidates.

    A pass takes about a second, so every operation is timed about 25
    times in a 40 s run; the fastest of that many timings stays steady on a
    machine whose speed drifts by half for tens of seconds at a time.  The
    sizes put the median and the p90 among many operations of about the
    same cost, so that neither hinges on one input's shape.
    """
    if smoke:
        random_orders = [4, 8, 12]
        perm_orders = [3, 5, 8]
        candidate_orders = [4, 6, 8]
    else:
        random_orders = list(range(32, 257, 32))
        perm_orders = [8, 16, 24, 32, 64, 96, 128]
        candidate_orders = list(range(12, 65, 4))
    ops: list[Op] = []
    masks = []

    for n in random_orders:
        blocks = large_masks(rng, n)
        d = ds.PartitionDiagram(n, blocks)
        masks.append((n, blocks))
        ops.append(Op(
            kind="sort_random",
            run=lambda call, d=d: call("sorting.sort_diagram", ds.sort_diagram, d),
            check=lambda image, d=d: oracles.check_sorted_diagram(d, image),
            diagram=d,
        ))

    for n in perm_orders:
        word = list(range(1, n + 1))
        rng.shuffle(word)
        d = ds.embed_permutation(word)
        masks.append((n, list(d.blocks)))
        ops.append(Op(
            kind="sort_perm",
            run=lambda call, d=d: call("sorting.sort_diagram", ds.sort_diagram, d),
            check=lambda image, w=tuple(word): oracles.check_sorted_permutation(ds, w, image),
            diagram=d,
        ))

    for i, n in enumerate(candidate_orders * (3 if smoke else 7)):
        identity = i % 3 == 0
        blocks = candidate_masks(rng, n, identity)
        d = ds.PartitionDiagram(n, blocks)
        masks.append((n, blocks))

        def check(verdict, d=d, identity=identity):
            if not isinstance(verdict, bool) or (identity and not verdict):
                return False
            return verdict == ds.is_sss_direct(d)

        ops.append(Op(
            kind="theorem",
            run=lambda call, d=d: call("analysis.is_sss_theorem", ds.is_sss_theorem, d),
            check=check,
            diagram=d,
        ))
    return Workload("sort-large", ops, masks)


# --- algebra -----------------------------------------------------------------


def stretch_input(ds, rng: random.Random, k: int, m: int):
    """A random diagram of order m with m blocks, a set composition, its stretch.

    The composition spreads three quarters of 1..k over the m parts; the
    rest become vertical blocks.  Both sizes are fixed so that the work
    varies little from seed to seed.  The expected stretch is built here
    from masks, independently of ``stretch_map``.
    """
    small = ds.PartitionDiagram(m, random_masks(rng, m, m))
    support = rng.sample(range(1, k + 1), 3 * k // 4)
    alpha = random_composition(rng, support, m)
    expected = ds.PartitionDiagram(k, oracles.stretch_masks(small.blocks, alpha, k))
    return small, alpha, expected


def build_algebra(ds, rng: random.Random, smoke: bool) -> Workload:
    """Stretch, compose, multiply and round-trip diagrams of orders 64-256."""
    orders = [8, 12] if smoke else list(range(64, 257, 32))
    ops: list[Op] = []
    masks = []
    for k in orders:
        inputs = [stretch_input(ds, rng, k, 2 + i % 3) for i in range(6)]
        stretched = [expected for _, _, expected in inputs]
        masks.extend((k, list(d.blocks)) for d in stretched)

        for small, alpha, expected in inputs:
            ops.append(Op(
                kind="stretch",
                run=lambda call, a=alpha, k=k, s=small: call("stretch.stretch_map", ds.stretch_map, a, k, s),
                check=lambda image, e=expected: image == e,
                diagram=expected,
            ))

        for i in range(5):
            a, b, c = stretched[i], stretched[i + 1], stretched[(i + 2) % 6]
            ops.append(Op(
                kind="compose",
                run=lambda call, a=a, b=b: call("core.compose", ds.compose, a, b),
                check=lambda product, a=a, b=b, c=c: oracles.check_compose_triple(ds, a, b, c, product),
                diagram=a,
            ))

        left = ds.AlgebraElement(k, {d: i + 1 for i, d in enumerate(stretched[:3])})
        right = ds.AlgebraElement(k, {d: i + 1 for i, d in enumerate(stretched[3:])})
        third = ds.AlgebraElement(k, {stretched[0]: 1, stretched[5]: 2})
        ops.append(Op(
            kind="multiply",
            run=lambda call, a=left, b=right: call("core.algebra_multiply", ds.algebra_multiply, a, b),
            check=lambda product, a=left, b=right, c=third: oracles.check_multiply_triple(ds, a, b, c, product),
            diagram=stretched[0],
        ))

        for d in stretched:
            def round_trip(call, d=d, k=k):
                text = call("core.format_diagram", ds.format_diagram, d)
                return call("core.parse_diagram", ds.parse_diagram, text, k)

            ops.append(Op(kind="round_trip", run=round_trip, check=lambda back, d=d: back == d, diagram=d))
    return Workload("algebra", ops, masks)


BUILDERS = {"census": build_census, "sort-large": build_sort_large, "algebra": build_algebra}


def build(ds, name: str, seed: int, smoke: bool) -> Workload:
    return BUILDERS[name](ds, random.Random(f"{name}:{seed}"), smoke)
