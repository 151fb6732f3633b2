"""Per-layer measurements for the traced run.

Every probe calls the public API from here, inside spans, on seeded
inputs of fixed size.  The same probes run for every workload, so each
per-layer metric means the same thing whichever workload's traced run
reports it; the workload's own traced passes add the self times.

Probes that time calls of a few microseconds time the whole loop and
divide, because a span per call would cost as much as the call.
"""

from __future__ import annotations

import random
import statistics
import time

import oracles
import workloads


class Probes:
    def __init__(self, ds, tracer, seed: int, smoke: bool):
        self.ds = ds
        self.tracer = tracer
        self.rng = random.Random(f"probe:{seed}")
        self.smoke = smoke
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def timed(self, name: str, fn, *args):
        """One call inside a span; returns (result, seconds)."""
        start = time.perf_counter()
        result = self.tracer.call(name, fn, *args)
        return result, time.perf_counter() - start

    def bulk(self, name: str, fn, items) -> tuple[list, float]:
        """fn over every item inside one span; returns (results, mean seconds)."""
        with self.tracer.span(name):
            start = time.perf_counter()
            results = [fn(x) for x in items]
            elapsed = time.perf_counter() - start
        return results, elapsed / max(1, len(results))

    # --- core and stretch at census sizes, sorting and analysis per diagram

    def small_orders(self, construct_masks) -> None:
        ds = self.ds
        top = 3 if self.smoke else 4
        count = 0
        elapsed = 0.0
        for n in range(top + 1):
            with self.tracer.span("core.enumerate_diagrams"):
                start = time.perf_counter()
                diagrams = list(ds.enumerate_diagrams(n))
                elapsed += time.perf_counter() - start
            self.expect(len(diagrams) == oracles.bell(2 * n))
            count += len(diagrams)
        self.put("core.enumerate.count", count, "count")
        self.put("core.enumerate.us_per_item", 1e6 * elapsed / count, "us")

        _, per_call = self.bulk("core.PartitionDiagram", lambda om: ds.PartitionDiagram(*om), construct_masks)
        self.put("core.construct.us_per_call", 1e6 * per_call, "us")

        images, per_call = self.bulk("sorting.sort_diagram", ds.sort_diagram, diagrams)
        self.put("sorting.sort_diagram.census.us_per_call", 1e6 * per_call, "us")
        flags, per_call = self.bulk("stretch.is_stretch_of_identity", ds.is_stretch_of_identity, images)
        self.put("stretch.is_stretch_of_identity.us_per_call", 1e6 * per_call, "us")
        direct, per_call = self.bulk("analysis.is_sss_direct", ds.is_sss_direct, diagrams)
        self.put("analysis.is_sss_direct.us_per_call", 1e6 * per_call, "us")
        self.expect(sum(flags) == sum(direct) == oracles.SORTABLE_COUNTS[top])

    # --- analysis: the census itself

    def census(self, known: dict) -> None:
        """Census at the two top orders, and the top order again with jobs=2.

        ``known`` maps an order to the (row, seconds) the census workload
        already measured untraced; those orders are not run again.
        """
        ds = self.ds
        low, top = (2, 3) if self.smoke else (4, 5)
        rows = {}
        for n in (low, top):
            if n not in known:
                known[n] = self.timed("analysis.census_stretch_sortable", ds.census_stretch_sortable, n)
                self.expect(oracles.check_census(known[n][0], n))
            rows[n] = known[n]
        self.put("analysis.census.n4_s", rows[low][1], "s")
        self.put("analysis.census.n5_s", rows[top][1], "s")
        row = rows[top][0]
        self.put("analysis.census.survivors", row.sortable, "count")
        self.put("analysis.census.yield", row.sortable / row.total, "ratio")
        # Two workers at most: the benchmark machine may have only two cores.
        parallel_row, parallel = self.timed(
            "analysis.census_stretch_sortable", lambda: ds.census_stretch_sortable(top, jobs=2)
        )
        self.expect(oracles.check_census(parallel_row, top))
        self.put("analysis.census.jobs2_speedup", rows[top][1] / parallel, "ratio")

    # --- sorting at large order

    def sorting(self) -> None:
        ds, rng = self.ds, self.rng
        small, large, perm_n = (6, 10, 10) if self.smoke else (32, 256, 512)
        randoms = {}
        for n in (small, large):
            randoms[n] = [ds.PartitionDiagram(n, workloads.large_masks(rng, n)) for _ in range(8)]
        words = []
        for _ in range(3):
            w = list(range(1, perm_n + 1))
            rng.shuffle(w)
            words.append(tuple(w))
        perms = [ds.embed_permutation(w) for w in words]

        plain = []
        for n, label in ((small, "random_n32"), (large, "random_n256")):
            times = []
            for d in randoms[n]:
                image, t = self.timed("sorting.sort_diagram", ds.sort_diagram, d)
                self.expect(oracles.check_sorted_diagram(d, image))
                times.append(t)
            plain += times
            self.put(f"sorting.sort_diagram.{label}.p50_ms", 1e3 * statistics.median(times), "ms")

        steps = []
        traced = 0.0
        for d in randoms[small] + randoms[large]:
            (image, events), t = self.timed("sorting.sort_diagram_traced", ds.sort_diagram_traced, d)
            self.expect(oracles.check_sorted_diagram(d, image))
            steps.append(len(events))
            traced += t
        self.put("sorting.split_steps.count", sum(steps), "count")
        self.put("sorting.split_steps.max_per_sort", max(steps), "count")
        self.put("sorting.traced_overhead_ratio", traced / sum(plain), "ratio")

        diagram_times, word_times = [], []
        for w, d in zip(words, perms):
            image, t = self.timed("sorting.sort_diagram", ds.sort_diagram, d)
            self.expect(oracles.check_sorted_permutation(ds, w, image))
            diagram_times.append(t)
            sorted_word, t = self.timed("sorting.sort_word", ds.sort_word, w)
            self.expect(sorted_word == oracles.stack_sort(w))
            word_times.append(t)
        self.put("sorting.sort_diagram.perm_n512.p50_ms", 1e3 * statistics.median(diagram_times), "ms")
        self.put("sorting.sort_word.perm_n512.p50_ms", 1e3 * statistics.median(word_times), "ms")
        self.put("sorting.perm_vs_word_ratio", sum(diagram_times) / sum(word_times), "ratio")

        times = []
        for d in randoms[small] + randoms[large] + perms:
            if not any(t and b for t, b in d.blocks):
                continue  # decompose needs a propagating block
            _, t = self.timed("sorting.decompose", ds.decompose, d)
            times.append(t)
        self.put("sorting.decompose.p50_ms", 1e3 * statistics.median(times), "ms")

        times = []
        for i, n in enumerate(range(8, 17, 4) if self.smoke else range(16, 97, 8)):
            d = ds.PartitionDiagram(n, workloads.candidate_masks(rng, n, i % 3 == 0))
            verdict, t = self.timed("analysis.is_sss_theorem", ds.is_sss_theorem, d)
            self.expect(verdict == ds.is_sss_direct(d))
            times.append(t)
        self.put("analysis.is_sss_theorem.p50_ms", 1e3 * statistics.median(times), "ms")

    # --- core algebra and stretch at large order

    def algebra(self) -> None:
        ds, rng = self.ds, self.rng
        orders = (8, 12) if self.smoke else (64, 128, 192, 256)
        stretch_t, compose_t, format_t, parse_t, multiply_t = [], [], [], [], []
        composes = middles = 0
        for k in orders:
            stretched = []
            for small, alpha, expected in (workloads.stretch_input(ds, rng, k, 2 + i % 3) for i in range(4)):
                image, t = self.timed("stretch.stretch_map", ds.stretch_map, alpha, k, small)
                self.expect(image == expected)
                stretch_t.append(t)
                stretched.append(expected)
            # Diagrams with k blocks on 2k nodes have many one-row blocks, so
            # their products lose components in the middle row.
            sparse = [ds.PartitionDiagram(k, workloads.random_masks(rng, k, k)) for _ in range(3)]
            for a, b in zip(stretched + sparse, stretched[1:] + sparse[1:]):
                (product, middle), t = self.timed("core.compose", ds.compose, a, b)
                self.expect(product.order == k)
                compose_t.append(t)
                composes += 1
                middles += middle
            for d in stretched:
                text, t = self.timed("core.format_diagram", ds.format_diagram, d)
                format_t.append(t)
                back, t = self.timed("core.parse_diagram", ds.parse_diagram, text, k)
                parse_t.append(t)
                self.expect(back == d)
            a = ds.AlgebraElement(k, {d: 1 for d in stretched[:2]})
            b = ds.AlgebraElement(k, {d: 2 for d in stretched[2:]})
            product, t = self.timed("core.algebra_multiply", ds.algebra_multiply, a, b)
            self.expect(product.order == k)
            multiply_t.append(t)
        self.put("stretch.stretch_map.p50_ms", 1e3 * statistics.median(stretch_t), "ms")
        self.put("core.compose.count", composes, "count")
        self.put("core.compose.middle_components", middles, "count")
        self.put("core.compose.p50_ms", 1e3 * statistics.median(compose_t), "ms")
        self.put("core.algebra_multiply.p50_ms", 1e3 * statistics.median(multiply_t), "ms")
        self.put("core.format.p50_ms", 1e3 * statistics.median(format_t), "ms")
        self.put("core.parse.p50_ms", 1e3 * statistics.median(parse_t), "ms")
