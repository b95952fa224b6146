"""Self-tests of the benchmark's inputs, oracles and probes.

Run from the repository root with ``python3 -m unittest bench/test_bench.py``
(or ``python3 -m pytest bench``).
"""

from __future__ import annotations

import json
import signal
import sys
import unittest
from pathlib import Path
from time import perf_counter
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as w  # noqa: E402
from wordrep import boards, graphs, orientations, verify  # noqa: E402
from wordrep.catalog import ClosurePolicy, forbidden_set  # noqa: E402

GENERATORS = {
    "sweep": w.sweep_boards,
    "colourable": w.colourable_hosts,
    "decide": w.decide_items,
}


def _library_host(spec: str, literal: str):
    board = boards.parse_board(spec)
    return boards.triangulate(board, boards.parse_triangulation(board, literal))


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, gen in GENERATORS.items():
            with self.subTest(name):
                self.assertEqual(gen(7), gen(7))

    def test_different_seeds_different_inputs(self):
        for name in ("colourable", "decide"):
            runs = [repr(GENERATORS[name](seed)) for seed in range(4)]
            self.assertEqual(len(set(runs)), len(runs), name)
        # Two of three pool boards and the bare board, in seeded order: 18
        # possible inputs, so distinct seeds may coincide but must not all.
        sweeps = {tuple(w.sweep_boards(seed)) for seed in range(20)}
        self.assertGreaterEqual(len(sweeps), 8)

    def test_stratified_sizes(self):
        for seed in (1, 2):
            hosts = w.colourable_hosts(seed)
            self.assertEqual(len(hosts), 240)
            sizes = {w.host_graph(spec, lit)[0] for spec, lit in hosts}
            self.assertEqual(sizes, {15, 16, 18, 20, 24})
            kinds = [item["kind"] for item in w.decide_items(seed)]
            self.assertEqual((kinds.count("yes"), kinds.count("no")), (420, 840))


class OracleTests(unittest.TestCase):
    def test_parity_oracle_matches_colouring_on_every_2x3_host(self):
        specs = ["cells 2x3"] + w.domino_specs(2, 3, "H") + w.domino_specs(2, 3, "V")
        checked = 0
        for spec in specs:
            for literal in w.all_literals(spec):
                g = _library_host(spec, literal).graph
                colourable = graphs.is_k_colourable(g, 3) is not None
                self.assertEqual(w.interior_parity_ok(spec, literal), colourable, (spec, literal))
                checked += 1
        self.assertEqual(checked, 64 + 4 * 32 + 3 * 32)

    def test_host_builder_matches_library(self):
        for spec in ["cells 3x3", "cells 3x3; domino H 1 0", "cells 2x4; domino V 0 2"]:
            for literal in w.all_literals(spec)[:40]:
                n, edges = w.host_graph(spec, literal)
                g = _library_host(spec, literal).graph
                self.assertEqual((g.n, set(g.edges)), (n, set(edges)))

    def test_colourable_hosts_pass_the_parity_oracle(self):
        for spec, literal in w.colourable_hosts(3):
            self.assertTrue(w.interior_parity_ok(spec, literal), (spec, literal))

    def test_alternation_edges_match_library(self):
        from wordrep.words import graph_of_word

        for item in w.decide_items(1)[:60]:
            if item["kind"] == "yes":
                g = graph_of_word(item["word"], item["n"])
                self.assertEqual(set(g.edges), w.item_edges(item)[1])

    def test_shortcut_scan(self):
        path = [(0, 1), (1, 2), (2, 3)]
        edges = {(0, 1), (1, 2), (2, 3), (0, 3)}
        self.assertFalse(w.semi_transitive(4, edges, path + [(0, 3)]))  # shortcut
        self.assertFalse(w.semi_transitive(4, edges, path + [(3, 0)]))  # cycle
        full = {(u, v) for u in range(4) for v in range(u + 1, 4)}
        self.assertTrue(w.semi_transitive(4, full, sorted(full)))  # transitive
        for g in (graphs.wheel(4), graphs.complete(4)):
            o = orientations.semi_transitive_certificate(g)
            self.assertTrue(w.semi_transitive(g.n, set(g.edges), o.arcs()))


class GeneratorTests(unittest.TestCase):
    def test_yes_graphs(self):
        for item in w.decide_items(2):
            if item["kind"] != "yes":
                continue
            n, edges = w.item_edges(item)
            self.assertLessEqual(len(edges), w.EDGE_BUDGET)
            self.assertFalse(w.three_colourable(n, edges))
            self.assertEqual(sorted(item["word"]), sorted(list(range(n)) * 2))

    def test_no_graphs_keep_the_planted_wheel_induced(self):
        for item in w.decide_items(2):
            if item["kind"] != "no":
                continue
            n, edges = w.item_edges(item)
            self.assertLessEqual(len(edges), w.EDGE_BUDGET)
            hub, rim = item["wheel"]
            m = len(rim)
            self.assertIn(m, w.NO_WHEELS)
            extra = n - m - 1
            self.assertIn(extra, w.NO_EXTRA)
            self.assertEqual(len(edges), 2 * m + w.ATTACH_PER_TWO_EXTRAS * extra // 2)
            wheel = {tuple(sorted((rim[i], rim[(i + 1) % m]))) for i in range(m)}
            wheel |= {tuple(sorted((hub, r))) for r in rim}
            kept = set(rim) | {hub}
            induced = {e for e in edges if e[0] in kept and e[1] in kept}
            self.assertEqual(induced, wheel)


class SpeedTests(unittest.TestCase):
    def test_sampler_leaves_itself_out_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as clock:
            a = perf_counter()
            while perf_counter() - a < 0.45:
                pass
            b = perf_counter()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreaterEqual(len(clock.took), 5)  # entry, exit and the alarms between
        raw = clock.raw(a, b)
        self.assertLess(raw, b - a)
        self.assertGreater(raw, 0.5 * (b - a))
        self.assertGreater(clock.speed_scaled(a, b), 0.0)
        self.assertLessEqual(clock.scaled(a, b), clock.speed_scaled(a, b))  # steal only removes
        self.assertEqual(clock.scaled(a, a), 0.0)


class ProbeTests(unittest.TestCase):
    def _trace(self):
        host = _library_host("cells 2x2", "/\\//")
        with spans.Tracer() as tracer:
            tracer.root(verify.classify, host, forbidden_set(ClosurePolicy.EXTENDED))
            tracer.root(orientations.semi_transitive_certificate, graphs.wheel(5))
        return tracer

    def test_probes_are_removed_after_the_trace(self):
        before = verify.exists_semi_transitive
        self._trace()
        self.assertIs(verify.exists_semi_transitive, before)

    def test_layer_metrics_cover_the_declared_per_layer_metrics(self):
        values, _ = spans.layer_metrics(self._trace())
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
        names = {m["name"] for m in declared}
        # Two metrics come from rusage and pass timings rather than from spans.
        self.assertEqual(set(values) | {"verify.pool.busy_ratio", "trace.overhead_ratio"}, names)
        # Both traced graphs (a non-3-colourable 2x2 host and W5) exhaust the search.
        self.assertEqual(values["orientations.exists_semi_transitive.no"], 2)

    def test_missing_probe_is_reported_absent(self):
        gone = {"verify.cache.lookup": (["wordrep.verify:RemovedCache.lookup"], None)}
        with mock.patch.dict(spans.PROBES, gone):
            values, _ = spans.layer_metrics(self._trace())
        self.assertEqual(values["verify.cache.lookups"], "absent")
        self.assertEqual(values["verify.cache.hit_ratio"], "absent")
        self.assertIsInstance(values["graphs.is_k_colourable.calls"], int)


if __name__ == "__main__":
    unittest.main()
