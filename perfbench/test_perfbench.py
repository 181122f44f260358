#!/usr/bin/env python3
"""Tests of the benchmark's own metric grammar, output schema and checks.

    python3 perfbench/test_perfbench.py

Pure Python: feeds metrics.py synthetic bench-binary records, good and doctored,
so no build is needed.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NODES, DIAMETER = 4, 3


def batch_result(max_load=2, served=6, dropped=0, cost=1.5, runs=None):
    # Loads (2, 2, 1, 1) over 4 nodes: histogram [0, 2, 2].
    result = {"kind": "batch", "max_load": max_load, "comm_cost": cost,
              "served": served, "dropped": dropped,
              "attempted": served + dropped, "fallbacks": 0,
              "histogram": [0, 2, 2]}
    if runs is not None:
        result.update(kind="mc", runs=runs, origin_offload=0.995,
                      histogram=[0, 2 * runs, 2 * runs],
                      served=6 * runs, attempted=6 * runs)
    return result


def event_result(static=False):
    return {"kind": "event", "static_policy": static, "admitted": 10,
            "served": 10, "lost": 0, "dropped": 0, "attempted": 10,
            "window_arrivals": 10, "events": 40, "hits": 6,
            "misses": 0 if static else 2, "inserts": 0 if static else 2,
            "evictions": 0 if static else 1, "origin_fetches": 0,
            "hit_rate": 1.0 if static else 0.75, "comm_cost": 1.0}


def cell_record(name, trace=False):
    strategy, mode = name.split(".")
    if mode == "mc4":
        result = batch_result(runs=2)
    elif mode.startswith("ev-"):
        result = event_result(static=mode == "ev-static")
    elif strategy == "nearest":
        # Nearest: higher max load, lower communication cost.
        result = batch_result(max_load=3, cost=0.5)
        result["histogram"] = [1, 1, 1, 1]
    else:
        result = batch_result()
    record = {"type": "cell", "cell": name, "strategy": strategy,
              "spec": strategy, "mode": mode, "nodes": NODES,
              "diameter": DIAMETER, "requests_per_run": 6,
              "runs_per_call": 2 if mode == "mc4" else 1}
    if mode in ("w4", "mc4") and not trace:
        # Not timed: one call for the checks.
        record.update(calls=1, result=result)
    elif trace:
        record.update(calls=6, result=result,
                      layers={"untraced_s": 0.10, "traced_s": 0.11,
                              "requests": 6.0, "candidates": 12.0,
                              "fill_s": 0.01})
        if mode == "w4":
            record["sharded"] = copy.deepcopy(result)
    else:
        record["reps"] = [{"rep": r, "seconds": 0.002 * (r + 1),
                           "cpu_seconds": 0.001 * (r + 1),
                           "warmup": r == 0, "result": copy.deepcopy(result)}
                          for r in range(4)]
    if mode == "w4":
        record["width1"] = copy.deepcopy(result)
    return record


def bench_records(trace=False):
    cells = {name: cell_record(name, trace) for name in metrics.cell_names()}
    return cells


def bench_text(cells, trace=False):
    lines = [{"type": "host", "host_cores": 4, "compiler": "GNU 12",
              "build_type": "Release", "ndebug": True,
              "workload": "torus-stream", "seed": 1, "trace": trace},
             {"type": "setup", "trials": [0.3, 0.1, 0.2],
              "layers": {"topology_build_s": 0.05}}]
    if not trace:
        # The host runs half as fast as the reference: 1e6 steps in 0.1 s.
        steps = metrics.REF_STEPS_PER_S / 20
        lines.append({"type": "reference", "steps_per_call": steps,
                      "checksum": 0,
                      "reps": [{"rep": r, "seconds": 0.2, "cpu_seconds": 0.1,
                                "warmup": r == 0} for r in range(4)]})
    lines += list(cells.values())
    lines.append({"type": "end", "peak_rss_mb": 20.5, "spans": 0,
                  "probe_checksum": 0})
    return "\n".join(json.dumps(line) for line in lines)


class BenchmarkJsonTest(unittest.TestCase):
    def test_committed_file_is_valid(self):
        self.assertEqual(metrics.validate_benchmark(SPEC), [])

    def test_declared_metrics_are_the_computed_ones(self):
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]],
                         metrics.end_to_end_names())
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         {k: v[0] for k, v in metrics.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(metrics.WORKLOADS))

    def test_name_grammar(self):
        for good in ("setup_s", "req_per_ref_s.two-choice.w4", "9lives.x"):
            self.assertTrue(metrics.NAME_RE.match(good), good)
        for bad in ("", ".hidden", "-x", "a b", "x" * 65, "a/b", "é"):
            self.assertFalse(metrics.NAME_RE.match(bad), bad)
        for good in ("ms", "1/s", "%", "count", "MB"):
            self.assertTrue(metrics.UNIT_RE.match(good), good)
        self.assertFalse(metrics.UNIT_RE.match("requests per second"))

    def test_format_violations_are_reported(self):
        def broken(edit):
            spec = copy.deepcopy(SPEC)
            edit(spec)
            return metrics.validate_benchmark(spec)

        self.assertTrue(broken(lambda s: s["end_to_end"][2].update(bound=0.3)))
        self.assertTrue(broken(lambda s: s["end_to_end"].pop(0)))
        self.assertTrue(broken(lambda s: s["per_layer"].append(
            dict(s["per_layer"][0]))))
        self.assertTrue(broken(lambda s: s.update(command=["/bin/sh"])))
        self.assertTrue(broken(lambda s: s.update(paths=["../x"])))
        self.assertTrue(broken(lambda s: s.update(run_seconds=61)))
        self.assertTrue(broken(lambda s: s["workloads"][0].update(
            why="two\nlines")))
        self.assertTrue(broken(lambda s: s.pop("per_layer")))


class CellCheckTest(unittest.TestCase):
    def test_good_batch_passes(self):
        self.assertEqual(metrics.check_batch(batch_result(), NODES,
                                             DIAMETER), [])
        self.assertEqual(metrics.check_batch(batch_result(runs=3), NODES,
                                             DIAMETER), [])

    def test_doctored_batch_fails(self):
        doctored = [
            dict(batch_result(), histogram=[0, 2, 1]),  # sums to 3, not n
            dict(batch_result(), max_load=3),           # not the top bin
            dict(batch_result(), served=7, attempted=7),  # sum k*count
            dict(batch_result(), attempted=9),          # served + dropped
            dict(batch_result(), comm_cost=3.5),        # above the diameter
            dict(batch_result(), comm_cost=None),       # non-finite
        ]
        for result in doctored:
            self.assertTrue(metrics.check_batch(result, NODES, DIAMETER),
                            result)

    def test_event_checks(self):
        for static in (False, True):
            self.assertEqual(metrics.check_event(event_result(static),
                                                 DIAMETER), [])
        doctored = [
            dict(event_result(), window_arrivals=9),
            dict(event_result(), attempted=11),
            dict(event_result(), hits=20),
            dict(event_result(static=True), inserts=1),
            dict(event_result(), hit_rate=1.5),
            dict(event_result(), comm_cost=4.0),
        ]
        for result in doctored:
            self.assertTrue(metrics.check_event(result, DIAMETER), result)

    def test_cross_check_needs_identical_outputs(self):
        record = cell_record("two-choice.w4")
        self.assertEqual(metrics.cross_check(record), [])
        record["width1"]["comm_cost"] += 1e-12
        self.assertTrue(metrics.cross_check(record))
        traced = cell_record("two-choice.w4", trace=True)
        self.assertEqual(metrics.cross_check(traced), [])
        traced["sharded"]["served"] += 1
        self.assertTrue(metrics.cross_check(traced))
        del traced["width1"]
        self.assertTrue(metrics.cross_check(traced))
        self.assertEqual(metrics.cross_check(cell_record("two-choice.w1")),
                         [])

    def test_shape_checks(self):
        cells = bench_records()
        self.assertEqual(metrics.shape_checks("torus-stream", cells), {})
        # Two-choice no better balanced than nearest.
        bad = bench_records()
        for rep in bad["two-choice.w1"]["reps"]:
            rep["result"]["max_load"] = 3
        failures = metrics.shape_checks("torus-stream", bad)
        self.assertIn("two-choice.w1", failures)
        self.assertIn("nearest.w1", failures)
        self.assertIn("two-choice.w1", metrics.shape_checks("rgg-hotspot",
                                                            bad))
        # Nearest not cheaper than two-choice: a torus-only check.
        costly = bench_records()
        costly["nearest.w4"]["result"]["comm_cost"] = 2.0
        self.assertIn("nearest.w4",
                      metrics.shape_checks("torus-stream", costly))
        self.assertEqual(metrics.shape_checks("rgg-hotspot", costly), {})
        # Origin offload below 0.99 on the cdn workload.
        leaky = bench_records()
        leaky["balancer.mc4"]["result"]["origin_offload"] = 0.98
        self.assertEqual(list(metrics.shape_checks("cdn-hotspot", leaky)),
                         ["balancer.mc4"])


class AssembleTest(unittest.TestCase):
    def test_untraced_result(self):
        result, context, _ = metrics.assemble(
            SPEC, "torus-stream", bench_text(bench_records()), False)
        self.assertEqual(metrics.validate_result(result, SPEC, False), [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(context["failures"], {})
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.2)
        # Timed calls 1..3 of 6 requests each at 2, 3, 4 CPU-ms (wall time
        # twice that): 18 requests in 9 CPU-ms, 2000 per CPU-second, on a
        # host at half the reference speed.
        self.assertAlmostEqual(context["req_per_cpu_s"]["two-choice.w1"],
                               2000.0)
        self.assertAlmostEqual(
            result["metrics"]["req_per_ref_s.two-choice.w1"]["value"], 4000.0)
        per_call = {"mc4": 12, "ev-lru": 10, "ev-static": 10}
        calls = {"w4": 1, "mc4": 1}
        attempted = sum(calls.get(name.split(".")[1], 4) *
                        per_call.get(name.split(".")[1], 6)
                        for name in metrics.cell_names())
        self.assertEqual(result["attempted"], attempted)

    def test_doctored_cell_fails_its_requests(self):
        cells = bench_records()
        cells["least-loaded.w1"]["reps"][3]["result"]["max_load"] = 1
        result, context, _ = metrics.assemble(
            SPEC, "torus-stream", bench_text(cells), False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 24)  # 4 calls x 6 requests
        self.assertEqual(list(context["failures"]), ["least-loaded.w1"])
        # An untimed w4 cell is checked too.
        cells = bench_records()
        cells["least-loaded.w4"]["result"]["served"] = 5
        result, context, _ = metrics.assemble(
            SPEC, "torus-stream", bench_text(cells), False)
        self.assertEqual(result["failed"], 6)
        self.assertEqual(list(context["failures"]), ["least-loaded.w4"])

    def test_dropped_requests_count_as_failed(self):
        cells = bench_records()
        rep = cells["prox-weighted.w1"]["reps"][0]["result"]
        rep.update(dropped=2, attempted=8)
        result, _, _ = metrics.assemble(SPEC, "torus-stream",
                                        bench_text(cells), False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 2)

    def test_traced_result(self):
        cells = bench_records(trace=True)
        result, context, _ = metrics.assemble(
            SPEC, "torus-stream", bench_text(cells, True), True)
        self.assertEqual(metrics.validate_result(result, SPEC, True), [])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(values["topology.build_s"], 0.05)
        self.assertAlmostEqual(values["strategy.candidates_per_request"], 2.0)
        self.assertAlmostEqual(values["trace.overhead"], 0.1)
        self.assertEqual(values["graph.exact_ratio"], 0.0)  # 0/0
        self.assertAlmostEqual(context["trace_overhead"]["nearest.w1"], 0.1)

    def test_missing_cell_is_an_error(self):
        cells = bench_records()
        del cells["balancer.ev-lru"]
        with self.assertRaises(metrics.BenchError):
            metrics.assemble(SPEC, "torus-stream", bench_text(cells), False)

    def test_untraced_run_needs_the_reference_kernel(self):
        lines = [line for line in bench_text(bench_records()).splitlines()
                 if json.loads(line)["type"] != "reference"]
        with self.assertRaises(metrics.BenchError):
            metrics.assemble(SPEC, "torus-stream", "\n".join(lines), False)


class ResultSchemaTest(unittest.TestCase):
    def good(self):
        result, _, _ = metrics.assemble(
            SPEC, "torus-stream", bench_text(bench_records()), False)
        return result

    def test_schema_violations(self):
        result = self.good()
        self.assertEqual(metrics.validate_result(result, SPEC, False), [])
        broken = [
            lambda r: r.pop("failed"),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=1.5),
            lambda r: r.update(correct="yes"),
            lambda r: r["metrics"].pop("setup_s"),
            lambda r: r["metrics"]["setup_s"].update(unit="ms"),
            lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
            lambda r: r["metrics"]["peak_rss_mb"].update(value=0.0),
        ]
        for edit in broken:
            doctored = copy.deepcopy(result)
            edit(doctored)
            self.assertTrue(metrics.validate_result(doctored, SPEC, False))
        # The traced run reports the per-layer metrics instead.
        self.assertTrue(metrics.validate_result(result, SPEC, True))


if __name__ == "__main__":
    unittest.main()
