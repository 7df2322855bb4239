"""Self-tests of the benchmark's tracer, gate and metric names.

Usage (from the repository root): python3 bench/selftest.py
"""

import json
import re
import sys
import threading
import unittest
from pathlib import Path

import gate
import tracer
from tracer import LayerStats, Span, Tracer

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Boom(Exception):
    pass


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TracerTest(unittest.TestCase):
    def test_values_and_exceptions_pass_through(self):
        t = Tracer()
        token = object()
        err = Boom("x")

        def ok(a, b=2):
            return token

        def bad():
            raise err

        self.assertIs(t.wrap("ok", ok)(1, b=3), token)
        with self.assertRaises(Boom) as caught:
            t.wrap("bad", bad)()
        self.assertIs(caught.exception, err)
        self.assertEqual([s.name for s in t.spans], ["ok", "bad"])

    def test_self_time_of_nested_call(self):
        # wall: outer 0..10, inner 1..3; thread cpu: outer 0..6, inner 0.5..2.5
        t = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 10.0), cpu_clock=fake_clock(0.0, 0.5, 2.5, 6.0))
        inner = t.wrap("inner", lambda: None)
        t.wrap("outer", lambda: inner())()
        stats = LayerStats()
        stats.add(t.spans)
        self.assertEqual(stats.total_s["outer"], 10.0)
        self.assertEqual(stats.self_s["outer"], 8.0)
        self.assertEqual(stats.wait_s["outer"], 4.0)  # 8 s self wall, 4 s self cpu
        self.assertEqual(stats.self_s["inner"], 2.0)
        self.assertEqual(stats.wait_s["inner"], 0.0)

    def test_self_time_subtracts_union_of_overlapping_worker_spans(self):
        main, worker_a, worker_b = 1, 2, 3
        spans = [
            Span(0, "outer", 0.0, 10.0, 0.0, 1.0, None, main, None, None),
            Span(1, "a", 1.0, 5.0, 0.0, 4.0, 0, worker_a, None, None),
            Span(2, "b", 3.0, 8.0, 0.0, 5.0, 0, worker_b, None, None),
        ]
        stats = LayerStats()
        stats.add(spans)
        self.assertEqual(stats.self_s["outer"], 3.0)
        self.assertEqual(stats.wait_s["outer"], 2.0)  # other threads' cpu is not subtracted

    def test_worker_thread_span_parents_to_main_thread_span(self):
        t = Tracer()
        leaf = t.wrap("leaf", lambda: None)

        def fan_out():
            worker = threading.Thread(target=leaf)
            worker.start()
            worker.join(timeout=10)
            self.assertFalse(worker.is_alive())

        t.wrap("root", fan_out)()
        by_name = {s.name: s for s in t.spans}
        self.assertEqual(by_name["leaf"].parent, by_name["root"].id)
        self.assertNotEqual(by_name["leaf"].thread, by_name["root"].thread)

    def test_install_wraps_cross_module_bindings_and_skips_missing_names(self):
        sys.path.insert(0, str(BENCH.parent / "src"))
        from graphonlab import cutmetric, graphons

        t = Tracer()
        skipped = t.install(tracer.TARGETS + ("graphs.no_such_function", "no_such_module.f"))
        self.assertEqual(skipped, ["graphs.no_such_function", "no_such_module.f"])
        self.assertIs(cutmetric.equalize, graphons.equalize)
        w = graphons.uniform_attachment_limit(3)
        cutmetric.cut_distance(w, w, 3)
        names = {s.name for s in t.spans}
        self.assertIn("cutmetric.cut_distance.exhaustive", names)
        self.assertIn("graphons.equalize", names)
        stats = LayerStats()
        stats.add(t.spans)
        self.assertEqual(stats.work["cutmetric.cut_distance.exhaustive"], 6)


class GateTest(unittest.TestCase):
    ROW = "8,0,0.40625,0.03515625,0.05029296875,0.089518229166666671\n"

    def perturbed(self, delta):
        fields = self.ROW.strip().split(",")
        fields[-1] = f"{float(fields[-1]) + delta:.17g}"
        return ",".join(fields) + "\n"

    def test_rejects_1e_11_and_accepts_1e_13(self):
        ref = gate.ref_entry("", {"trace.csv": self.ROW.encode()})
        accepted = gate.compare_to_ref("", {"trace.csv": self.perturbed(1e-13).encode()}, ref)
        rejected = gate.compare_to_ref("", {"trace.csv": self.perturbed(1e-11).encode()}, ref)
        self.assertEqual(accepted, [])
        self.assertEqual(len(rejected), 1)

    def test_binary_files_compare_by_bytes(self):
        ref = gate.ref_entry("", {"a.pgm": b"P5\n1 1\n255\n\x00"})
        self.assertEqual(gate.compare_to_ref("", {"a.pgm": b"P5\n1 1\n255\n\x00"}, ref), [])
        self.assertEqual(len(gate.compare_to_ref("", {"a.pgm": b"P5\n1 1\n255\n\x01"}, ref)), 1)


class MetricNameTest(unittest.TestCase):
    def test_names_are_valid_and_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, tracer.layer_metric_specs())
        produced = tracer.layer_metrics(LayerStats(), 0.0)
        self.assertEqual(list(produced), [name for name, _, _ in listed])
        names = [m["name"] for m in spec["end_to_end"]] + list(produced)
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
