"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Covers self-time arithmetic (nested and back-to-back child spans),
percentile selection, wrapping functions where consumers look them up,
and reporting a wrapped function that no longer exists as absent.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS, layer_metrics, merge, per_layer_spec  # noqa: E402
from tracing import (Tracer, covered, percentile, self_times, summarize,  # noqa: E402
                     tail_level)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def span(name, start, end, parent):
    return [name, start, end, parent, "run"]


class SelfTime(unittest.TestCase):
    def test_back_to_back_children(self):
        spans = [span("a", 0.0, 10.0, -1),
                 span("b", 1.0, 3.0, 0),
                 span("b", 3.0, 6.0, 0)]
        self.assertEqual(self_times(spans), [5.0, 2.0, 3.0])

    def test_nested_children_count_only_direct_ones(self):
        spans = [span("a", 0.0, 10.0, -1),
                 span("b", 2.0, 8.0, 0),
                 span("c", 3.0, 5.0, 1)]
        self.assertEqual(self_times(spans), [4.0, 4.0, 2.0])

    def test_self_times_sum_to_root_duration(self):
        spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 4.0, 0),
                 span("c", 1.5, 2.0, 1), span("c", 2.0, 3.5, 1),
                 span("b", 4.0, 9.0, 0), span("d", 5.0, 6.0, 4)]
        self.assertAlmostEqual(sum(self_times(spans)), 10.0)

    def test_overlapping_intervals_are_not_double_counted(self):
        self.assertEqual(covered([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0), 5.0)
        self.assertEqual(covered([(-1.0, 2.0)], 0.0, 10.0), 2.0)

    def test_summary_incl_counts_outermost_calls_once(self):
        spans = [span("f", 0.0, 10.0, -1), span("g", 1.0, 9.0, 0),
                 span("f", 2.0, 4.0, 1)]
        s = summarize(spans, [None, {"rows": 3}, None])
        self.assertEqual(s["f"]["calls"], 2)
        self.assertEqual(s["f"]["incl_s"], 10.0)
        self.assertEqual(s["f"]["self_s"], 2.0 + 2.0)
        self.assertEqual(s["g"]["rows"], 3)
        self.assertEqual(s["g"]["self_s"], 6.0)

    def test_tracer_records_parents_and_time(self):
        clock = FakeClock()
        tracer = Tracer("r", clock=clock)

        def inner():
            clock.now += 2.0

        traced_inner = tracer.wrap("inner", inner)

        def outer():
            clock.now += 1.0
            traced_inner()
            traced_inner()
            clock.now += 1.0

        tracer.wrap("outer", outer)()
        s = summarize(tracer.spans, tracer.work)
        self.assertEqual([sp[3] for sp in tracer.spans], [-1, 0, 0])
        self.assertEqual(s["outer"]["incl_s"], 6.0)
        self.assertEqual(s["outer"]["self_s"], 2.0)
        self.assertEqual(s["inner"]["self_s"], 4.0)

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer("r")

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap("boom", boom)()
        self.assertEqual(tracer._stack(), [])
        self.assertFalse(math.isnan(tracer.spans[0][2]))


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(percentile(values, 0.5), 50.0)
        self.assertEqual(percentile(values, 0.9), 90.0)
        self.assertEqual(percentile(values, 0.99), 99.0)
        self.assertEqual(percentile([3.0], 0.5), 3.0)
        self.assertEqual(percentile([5.0, 1.0, 3.0], 0.5), 3.0)

    def test_tail_level_keeps_ten_samples_beyond(self):
        self.assertIsNone(tail_level(19))
        self.assertEqual(tail_level(20), 0.5)
        self.assertEqual(tail_level(176), 0.9)
        self.assertEqual(tail_level(999), 0.9)
        self.assertEqual(tail_level(1000), 0.99)
        self.assertEqual(tail_level(10000), 0.999)

    def test_layer_metrics_pick_the_tail_level(self):
        durations = [float(v) for v in range(1, 177)]
        metrics = layer_metrics({"generator.mle_step": {"durations_ms": durations}})
        self.assertEqual(metrics["generator.mle_step.ms_p50"], 88.0)
        self.assertEqual(metrics["generator.mle_step.ms_tail"], percentile(durations, 0.9))


class Install(unittest.TestCase):
    def setUp(self):
        self.pkg = types.ModuleType("fakepkg")
        self.home = types.ModuleType("fakepkg.numerics")
        self.user = types.ModuleType("fakepkg.recurrent")

        def sigmoid(x):
            return x + 1

        self.original = sigmoid
        self.home.sigmoid = sigmoid
        self.user.sigmoid = sigmoid          # `from .numerics import sigmoid`
        self.user.step = lambda x: self.user.sigmoid(x)
        sys.modules.update({"fakepkg": self.pkg, "fakepkg.numerics": self.home,
                            "fakepkg.recurrent": self.user})

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.numerics", "fakepkg.recurrent"):
            sys.modules.pop(name, None)

    def test_patched_where_looked_up(self):
        tracer = Tracer("r")
        tracer.install("fakepkg", {"numerics.sigmoid": (None, None)})
        self.assertIsNot(self.user.sigmoid, self.original)
        self.assertEqual(self.user.step(1), 2)
        self.assertEqual(self.home.sigmoid(1), 2)
        self.assertEqual([s[0] for s in tracer.spans], ["numerics.sigmoid"] * 2)

    def test_missing_function_is_reported_absent(self):
        tracer = Tracer("r")
        tracer.install("fakepkg", {"numerics.gone": (None, None),
                                   "nomodule.f": (None, None),
                                   "numerics.sigmoid": (None, None)})
        self.assertEqual(tracer.absent, ["numerics.gone", "nomodule.f"])
        self.assertEqual(self.user.step(0), 1)

    def test_absent_layer_reads_zero(self):
        metrics = layer_metrics(merge([{}]))
        for target, stats in LAYERS.items():
            for stat in stats:
                self.assertEqual(metrics[f"{target}.{stat}"], 0)


class Spec(unittest.TestCase):
    def test_per_layer_names_are_unique_and_valid(self):
        names = [m["name"] for m in per_layer_spec()]
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(names), 128)
        for name in names:
            self.assertLessEqual(len(name), 64)

    def test_traced_run_reports_exactly_the_declared_metrics(self):
        from run import trace_metrics
        stage = {"stage": "advtrain", "startup_s": 0.2, "main_s": 1.0, "absent": [],
                 "summary": summarize([span("cli.main", 0.0, 1.0, -1)], [None])}
        reps = [{"trace": False, "wall_s": 1.0, "stages": [stage]},
                {"trace": True, "wall_s": 1.1, "stages": [stage]}]
        metrics, absent, _ = trace_metrics([stage], reps)
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in per_layer_spec()))
        self.assertEqual(absent, [])

    def test_benchmark_json_lists_every_per_layer_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer"]
        self.assertEqual(declared, per_layer_spec())


if __name__ == "__main__":
    unittest.main()
