#!/usr/bin/env python3
"""Script-level lock for check_bench_regression.py.

Runs the gate as a subprocess over synthetic bench files and asserts on
exit status and the printed notices — exactly what CI observes. The cases
that matter most are the `dynamic` and `tiered` blocks' tolerate-absent
contract (skip-with-notice when either file lacks the block, never a
KeyError), the per-row failures when both files do carry it, and the
tiered win-invariant on the fresh rows. Only the Python standard library
is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def result_row(strategy: str, rps: float) -> dict:
    return {"strategy": strategy, "threads": 1, "requests_per_sec": rps}


def dynamic_row(strategy: str, policy: str, topology: str,
                eps: float) -> dict:
    return {"strategy": strategy, "policy": policy, "topology": topology,
            "events_per_sec": eps}


def tiered_row(strategy: str, scenario: str, rps: float,
               back_tail: float = 40.0, origin_hits: float = 100.0) -> dict:
    return {"tier_strategy": strategy, "scenario": scenario,
            "requests_per_sec": rps, "back_tail": back_tail,
            "origin_hits": origin_hits}


def bench_doc(results: list[dict], dynamic: list[dict] | None = None,
              tiered: list[dict] | None = None) -> dict:
    doc = {"bench": "micro_throughput", "threads": 1, "results": results}
    if dynamic is not None:
        doc["dynamic"] = {"note": "test", "rows": dynamic}
    if tiered is not None:
        doc["tiered"] = {"note": "test", "rows": tiered}
    return doc


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def run_gate(self, baseline: dict, fresh: dict,
                 *extra_args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, SCRIPT,
             "--baseline", self.write("baseline.json", baseline),
             "--fresh", self.write("fresh.json", fresh), *extra_args],
            capture_output=True, text=True, check=False)

    def test_clean_pass_without_dynamic_blocks(self) -> None:
        doc = bench_doc([result_row("nearest", 1000.0)])
        proc = self.run_gate(doc, doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("[skip] dynamic: baseline has no 'dynamic' block",
                      proc.stdout)
        self.assertIn("bench check clean", proc.stdout)

    def test_result_row_drop_fails(self) -> None:
        baseline = bench_doc([result_row("nearest", 1000.0)])
        fresh = bench_doc([result_row("nearest", 500.0)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("req/s dropped", proc.stderr)

    def test_sharded_rows_match_on_strategy_and_threads(self) -> None:
        sharded = dict(result_row("two-choice", 900.0), threads=4,
                       speedup_vs_serial=0.9)
        fresh = bench_doc([result_row("two-choice", 1000.0), sharded])
        fresh["threads"] = 4
        fresh["host_cores"] = 4
        baseline = bench_doc([result_row("two-choice", 1000.0),
                              dict(sharded, requests_per_sec=1000.0)])
        proc = self.run_gate(baseline, fresh, "--min-speedup", "0.7")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("two-choice threads=4: 1,000 -> 900 req/s", proc.stdout)
        self.assertIn("two-choice threads=4: speedup 0.90x", proc.stdout)

        duplicate = bench_doc([result_row("two-choice", 1000.0),
                               result_row("two-choice", 1000.0)])
        proc = self.run_gate(duplicate, fresh)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("duplicate row ('two-choice', 1)", proc.stderr)

    def test_baseline_without_dynamic_block_skips_with_notice(self) -> None:
        # The tolerate-absent contract: a baseline predating the event
        # engine must not fail (or KeyError) against a fresh file that
        # carries the block.
        baseline = bench_doc([result_row("nearest", 1000.0)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("[skip] dynamic: baseline has no 'dynamic' block",
                      proc.stdout)

    def test_fresh_without_dynamic_block_skips_with_notice(self) -> None:
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6)])
        fresh = bench_doc([result_row("nearest", 1000.0)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("[skip] dynamic: fresh file has no 'dynamic' block",
                      proc.stdout)

    def test_dynamic_row_drop_fails(self) -> None:
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         1.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("events/s dropped", proc.stderr)

    def test_dynamic_row_within_tolerance_passes(self) -> None:
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         4.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench check clean", proc.stdout)

    def test_missing_dynamic_row_fails(self) -> None:
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6),
             dynamic_row("two-choice", "static", "torus(side=20)", 6.0e6)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("two-choice", proc.stderr)

    def test_same_strategy_different_policy_tracks_separately(self) -> None:
        # Policy is part of the row identity: a drop under lru must be
        # reported against the lru row even when the static row improved.
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "static", "torus(side=20)", 5.0e6),
             dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         5.0e6)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            [dynamic_row("nearest", "static", "torus(side=20)", 9.0e6),
             dynamic_row("nearest", "lru(capacity=4)", "torus(side=20)",
                         1.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy=lru(capacity=4)", proc.stderr)
        self.assertNotIn("policy=static", proc.stderr)

    def test_tiered_blocks_absent_skip_with_notice(self) -> None:
        baseline = bench_doc([result_row("nearest", 1000.0)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            tiered=[tiered_row("cross-two-choice", "hotspot", 2.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("[skip] tiered: baseline has no 'tiered' block",
                      proc.stdout)
        fresh, baseline = baseline, fresh
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("[skip] tiered: fresh file has no 'tiered' block",
                      proc.stdout)

    def test_tiered_row_drop_fails(self) -> None:
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            tiered=[tiered_row("cross-two-choice", "hotspot", 2.0e6)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            tiered=[tiered_row("cross-two-choice", "hotspot", 0.4e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("tiered cross-two-choice under hotspot", proc.stderr)

    def test_tiered_missing_fresh_row_fails(self) -> None:
        baseline = bench_doc(
            [result_row("nearest", 1000.0)],
            tiered=[tiered_row("cross-two-choice", "hotspot", 2.0e6),
                    tiered_row("front-first", "hotspot", 2.0e6)])
        fresh = bench_doc(
            [result_row("nearest", 1000.0)],
            tiered=[tiered_row("cross-two-choice", "hotspot", 2.0e6)])
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("front-first", proc.stderr)

    def test_tiered_win_invariant_holds(self) -> None:
        # cross-two-choice at or below the rivals on both metrics is clean;
        # equality is allowed because the figures are seeded.
        rows = [tiered_row("nearest", "hotspot", 2.0e6,
                           back_tail=52.0, origin_hits=2424.0),
                tiered_row("front-first", "hotspot", 2.0e6,
                           back_tail=79.2, origin_hits=2945.2),
                tiered_row("cross-two-choice", "hotspot", 2.0e6,
                           back_tail=52.0, origin_hits=143.6)]
        doc = bench_doc([result_row("nearest", 1000.0)], tiered=rows)
        proc = self.run_gate(doc, doc)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench check clean", proc.stdout)

    def test_tiered_win_invariant_regression_fails(self) -> None:
        # The fresh block decides the invariant: cross-two-choice losing on
        # back-end tail to nearest must fail even with healthy throughput.
        baseline_rows = [
            tiered_row("nearest", "flash-crowd", 2.0e6,
                       back_tail=50.6, origin_hits=2394.2),
            tiered_row("cross-two-choice", "flash-crowd", 2.0e6,
                       back_tail=41.0, origin_hits=143.6)]
        fresh_rows = [
            tiered_row("nearest", "flash-crowd", 2.0e6,
                       back_tail=50.6, origin_hits=2394.2),
            tiered_row("cross-two-choice", "flash-crowd", 2.0e6,
                       back_tail=66.0, origin_hits=143.6)]
        baseline = bench_doc([result_row("nearest", 1000.0)],
                             tiered=baseline_rows)
        fresh = bench_doc([result_row("nearest", 1000.0)], tiered=fresh_rows)
        proc = self.run_gate(baseline, fresh)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("hierarchy deliverable regressed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
