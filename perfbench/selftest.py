"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root.  Covers a tiny smoke op per workload,
input determinism, metric names, the percentile sample rule, span
self times and the committed exact counts.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import repro  # noqa: E402

from harness import METRIC_NAME, Tracer, percentile, run_loop  # noqa: E402
from ladder import catalog  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

TINY = {
    "tcu-sim": (
        Case("Heat-1D", (256,)), Case("Box-2D9P", (16, 16)),
        Case("Box-2D49P", (16, 16)), Case("Star-2D13P", (16, 16)),
        Case("Heat-3D", (8, 8, 8)),
    ),
    "grid-steps": (
        Case("Box-2D9P", (16, 16)), Case("Box-2D49P", (16, 16)),
        Case("Heat-3D", (8, 8, 8)), Case("Heat-1D", (256,)),
    ),
    "cluster-rounds": (Case("Box-2D9P", (32, 32)),),
    "faithful-abft": (
        Case("Box-2D9P", (16, 16)), Case("Box-2D49P", (16, 16)),
        Case("Heat-3D", (8, 8, 8)), Case("Heat-1D", (64,)),
    ),
}


def _benchmark() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def test_one_tiny_cycle_per_workload(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                wl = cls(7, Tracer(True), cases=TINY[name])
                state = wl.setup(repro.PlanCache())
                wl.prepare(state)
                res = run_loop(wl, state, wl.tracer, cycles=1)
                self.assertEqual(res.failed, 0, res.failures)
                self.assertEqual(res.attempted, len(wl.slots))

    def test_wrong_output_counts_as_failure(self):
        wl = WORKLOADS["grid-steps"](7, Tracer(False), cases=TINY["grid-steps"])
        state = wl.setup(repro.PlanCache())
        wl.prepare(state)
        slot = wl.slots[0]
        self.assertTrue(wl.check(state, slot, wl.inputs[slot.case] + 1.0))


class InputTest(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                a = cls(1, Tracer(False)).input_hash()
                self.assertEqual(a, cls(1, Tracer(False)).input_hash())
                self.assertNotEqual(a, cls(2, Tracer(False)).input_hash())


class MetricNameTest(unittest.TestCase):
    def test_names_match_pattern_and_are_unique(self):
        bench = _benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for n in names:
            self.assertRegex(n, "^" + METRIC_NAME + "$")
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_lists_the_catalog(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in _benchmark()["per_layer"]]
        self.assertEqual(listed, catalog())

    def test_benchmark_lists_every_workload(self):
        listed = [w["name"] for w in _benchmark()["workloads"]]
        self.assertEqual(sorted(listed), sorted(WORKLOADS))


class PercentileTest(unittest.TestCase):
    def test_omitted_below_ten_samples_beyond(self):
        self.assertIsNone(percentile(list(range(19)), 50))
        self.assertIsNotNone(percentile(list(range(21)), 50))
        self.assertIsNone(percentile(list(range(90)), 90))
        self.assertIsNotNone(percentile(list(range(100)), 90))
        self.assertIsNone(percentile([], 50))


class TracerTest(unittest.TestCase):
    def test_parent_links_trace_ids_and_self_time(self):
        tr = Tracer(True)
        for _ in range(2):
            with tr.span("bench.op"):
                with tr.span("runtime.compile"):
                    pass
                with tr.span("bench.check"):
                    pass
        ops = [s for s in tr.spans if s["name"] == "bench.op"]
        self.assertNotEqual(ops[0]["trace"], ops[1]["trace"])
        for s in tr.spans:
            if s["parent"] is not None:
                self.assertEqual(s["trace"], tr.spans[s["parent"]]["trace"])
        own = tr.self_ns()
        op = ops[0]
        kids = [s for s in tr.spans if s["parent"] == op["id"]]
        self.assertEqual(
            own[op["id"]],
            op["end_ns"] - op["start_ns"]
            - sum(k["end_ns"] - k["start_ns"] for k in kids),
        )

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(False)
        with tr.span("bench.op"):
            pass
        self.assertEqual(tr.spans, [])


class ExactCountTest(unittest.TestCase):
    def test_counts_repeat_across_seeds(self):
        with open(os.path.join(HERE, "exact_counts.json")) as f:
            golden = json.load(f)
        for name, cls in WORKLOADS.items():
            for seed in (3, 4):
                with self.subTest(workload=name, seed=seed):
                    wl = cls(seed, Tracer(False))
                    state = wl.setup(repro.PlanCache())
                    self.assertEqual(wl.exact_counts(state), golden[name])


if __name__ == "__main__":
    unittest.main()
