"""Metric definitions, output checks and result assembly for the benchmark.

The C++ bench binary (bench.cpp) prints raw per-cell records, one JSON object per
line. This module checks every cell's simulated outputs, cross-checks the
width-4 engine against the hand-driven width-1 schedule, applies the
paper-shape checks, and turns the records into the metrics that
BENCHMARK.json declares. It is pure Python so test_perfbench.py can feed it
doctored records.
"""

import json
import re
import statistics
from pathlib import Path

# Metric names: a letter or digit, then letters, digits, '_', '.', '-';
# at most 64 characters. Units: at most 16 of letters, digits, '_/%.-'.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

WORKLOADS = ("torus-stream", "rgg-hotspot", "cdn-hotspot")
STRATEGIES = ("nearest", "two-choice", "least-loaded", "prox-weighted")
BATCH_MODES = ("w1", "w4")
BALANCER_MODES = ("mc4", "ev-lru", "ev-static")


def cell_names():
    """Every cell every workload runs, as `<strategy>.<mode>`."""
    names = [f"{s}.{m}" for s in STRATEGIES for m in BATCH_MODES]
    return names + [f"balancer.{m}" for m in BALANCER_MODES]


UNTIMED_MODES = ("w4", "mc4")


def timed_cell_names():
    """The cells the untraced run times. The 4-thread cells (w4, mc4) only
    run for the checks: their wall time on a shared 4-core host spreads too
    widely to bound, so the traced run reports it per layer instead."""
    return [name for name in cell_names()
            if name.split(".")[1] not in UNTIMED_MODES]


def end_to_end_names():
    """The end-to-end metrics every workload reports."""
    return (["setup_s", "peak_rss_mb"] +
            [f"req_per_ref_s.{cell}" for cell in timed_cell_names()])


# Per-layer metric -> (unit, how it is computed from the summed raw counters
# of all cells). A string names one raw counter; a tuple (num, den, scale)
# is a ratio of two summed counters (0 when the denominator is 0).
PER_LAYER = {
    "scenario.fill_s": ("s", "fill_s"),
    "scenario.requests": ("count", "requests"),
    "scenario.resampled": ("count", "resampled"),
    "scenario.dropped": ("count", "trace_dropped"),
    "topology.build_s": ("s", "topology_build_s"),
    "topology.distance_ns": ("ns", ("distance_s", "distance_queries", 1e9)),
    "graph.rows_built": ("count", "rows_built"),
    "graph.rows_evicted": ("count", "rows_evicted"),
    "graph.exact_answers": ("count", "exact_answers"),
    "graph.landmark_answers": ("count", "landmark_answers"),
    "graph.exact_ratio": ("ratio", ("exact_answers", "answers", 1.0)),
    "catalog.placement_build_s": ("s", "placement_build_s"),
    "spatial.index_build_s": ("s", "index_build_s"),
    "spatial.nearest_ns": ("ns", ("nearest_s", "nearest_queries", 1e9)),
    "strategy.propose_s": ("s", "propose_s"),
    "strategy.choose_commit_s": ("s", "choose_commit_s"),
    "strategy.candidates_per_request": ("ratio",
                                        ("candidates", "requests", 1.0)),
    "strategy.decided_ratio": ("ratio", ("decided", "requests", 1.0)),
    "strategy.fallbacks": ("count", "fallbacks"),
    "core.harness_build_s": ("s", "harness_build_s"),
    "core.finalize_s": ("s", "finalize_s"),
    "core.experiment_req_per_s": ("1/s", ("mc_requests", "mc_run_s", 1.0)),
    "parallel.req_per_s": ("1/s", ("par_requests", "par_run_s", 1.0)),
    "parallel.fill_s": ("s", "par_fill_s"),
    "parallel.propose_s": ("s", "par_propose_s"),
    "parallel.join_s": ("s", "par_join_s"),
    "parallel.speculate_s": ("s", "par_speculate_s"),
    "parallel.commit_s": ("s", "par_commit_s"),
    "parallel.spec_hit_rate": ("ratio", ("spec_hits", "spec_attempts", 1.0)),
    "parallel.lane_imbalance": ("ratio", ("lane_imbalance", "lane_cells", 1.0)),
    "event.run_s": ("s", "event_run_s"),
    "event.events_per_request": ("ratio", ("events", "admitted", 1.0)),
    "event.hit_rate": ("ratio", ("hits", "lookups", 1.0)),
    "event.inserts": ("count", "inserts"),
    "event.evictions": ("count", "evictions"),
    "event.origin_fetches": ("count", "origin_fetches"),
    "event.policy_ns": ("ns", ("policy_s", "policy_accesses", 1e9)),
    "trace.overhead": ("ratio", ("overhead_s", "untraced_s", 1.0)),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (bad input or a failed step)."""


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def validate_benchmark(spec):
    """Return the list of ways `spec` breaks the BENCHMARK.json format."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return errors
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and
            all(isinstance(a, str) and len(a) <= 200 for a in command)):
        errors.append("command must be a list of 1..32 strings <= 200 chars")
    elif any(a.startswith("/") or ".." in a.split("/") for a in command):
        errors.append("command may not name absolute or parent paths")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and
                ".." not in p.split("/") for p in paths)):
        errors.append("paths must be 1..16 relative directory names")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number in 1..60")
    names = []
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        errors.append("2..8 workloads required")
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        if not isinstance(w["why"], str) or not 0 < len(w["why"]) <= 200 \
                or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: why must be one line")
    for group, limit, bounded in (("end_to_end", 16, True),
                                  ("per_layer", 128, False)):
        metrics = spec[group]
        if not 1 <= len(metrics) <= limit:
            errors.append(f"{group}: 1..{limit} metrics required")
        for m in metrics:
            want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
            if set(m) != want:
                errors.append(f"{group} metric keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not UNIT_RE.match(m["unit"]):
                errors.append(f"bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{m['name']}: better must be lower|higher")
            if bounded and not (isinstance(m["bound"], (int, float)) and
                                0 < m["bound"] <= 0.25):
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    for name in names:
        if not NAME_RE.match(name):
            errors.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("setup_s (unit s, lower is better) is required")
    elif any(m.get("bound", 0) > setup[0]["bound"]
             for m in spec["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    return errors


def load_benchmark(root):
    spec = json.loads((Path(root) / "BENCHMARK.json").read_text())
    errors = validate_benchmark(spec)
    if errors:
        raise BenchError("BENCHMARK.json: " + "; ".join(errors))
    return spec


# ---------------------------------------------------------------------------
# Per-cell output checks.
# ---------------------------------------------------------------------------

def check_batch(result, nodes, diameter):
    """Checks of one batch (w1/w4) or Monte-Carlo (mc4) result."""
    errors = []
    histogram = result["histogram"]
    runs = result.get("runs", 1)
    served, dropped = result["served"], result["dropped"]
    if sum(histogram) != nodes * runs:
        errors.append(f"load histogram sums to {sum(histogram)}, "
                      f"expected {nodes * runs}")
    weighted = sum(k * c for k, c in enumerate(histogram))
    if weighted != served:
        errors.append(f"sum k*count = {weighted} != served {served}")
    if served + dropped != result["attempted"]:
        errors.append(f"served {served} + dropped {dropped} != attempted "
                      f"{result['attempted']}")
    top = max((k for k, c in enumerate(histogram) if c > 0), default=0)
    if result["max_load"] != top:
        errors.append(f"max_load {result['max_load']} != top bin {top}")
    cost = result["comm_cost"]
    if cost is None or not 0 <= cost <= diameter:
        errors.append(f"comm_cost {cost} outside [0, diameter {diameter}]")
    return errors


def check_event(result, diameter):
    """Checks of one discrete-event (ev-lru/ev-static) result."""
    errors = []
    if result["window_arrivals"] != result["admitted"]:
        errors.append(f"windowed arrivals {result['window_arrivals']} != "
                      f"admitted {result['admitted']}")
    if result["admitted"] + result["lost"] + result["dropped"] != \
            result["attempted"]:
        errors.append("admitted + lost + dropped != attempted")
    if result["hits"] + result["misses"] > result["admitted"]:
        errors.append("more cache lookups than admitted requests")
    if result["static_policy"] and (result["inserts"] or result["evictions"]
                                    or result["misses"]):
        errors.append("static caches changed or missed")
    rate = result["hit_rate"]
    if rate is None or not 0 <= rate <= 1:
        errors.append(f"hit_rate {rate} outside [0, 1]")
    cost = result["comm_cost"]
    if cost is None or not 0 <= cost <= diameter:
        errors.append(f"comm_cost {cost} outside [0, diameter {diameter}]")
    return errors


def check_result(result, record):
    if result["kind"] == "event":
        return check_event(result, record["diameter"])
    return check_batch(result, record["nodes"], record["diameter"])


def cell_results(record):
    """Every simulated result a cell record carries."""
    results = [rep["result"] for rep in record.get("reps", [])]
    results += [record[k] for k in ("result", "width1", "sharded")
                if k in record]
    return results


def primary_results(record):
    """Results by run index: every call of an untraced run, or the traced
    run's one replication (run 0)."""
    if "reps" in record:
        return {rep["rep"]: rep["result"] for rep in record["reps"]}
    return {0: record["result"]}


def same_outputs(a, b):
    keys = ("max_load", "comm_cost", "served")
    return all(a[k] == b[k] for k in keys)


def cross_check(record):
    """Width invariance: a w4 cell's outputs equal the width-1 schedule's."""
    if record["mode"] != "w4":
        return []
    if "width1" not in record:
        return ["no width-1 run to cross-check against"]
    errors = []
    reference = record["width1"]
    others = [primary_results(record)[0]]
    if "sharded" in record:
        others.append(record["sharded"])
    for other in others:
        if not same_outputs(other, reference):
            errors.append(
                "w4 (max_load, comm_cost, served) = "
                f"({other['max_load']}, {other['comm_cost']}, "
                f"{other['served']}) != width-1 "
                f"({reference['max_load']}, {reference['comm_cost']}, "
                f"{reference['served']})")
    return errors


def shape_checks(workload, records):
    """Paper-shape checks. Returns {cell name: [errors]} for failing cells."""
    failures = {}

    def fail(cells, message):
        for cell in cells:
            failures.setdefault(cell, []).append(message)

    def paired(a, b):
        ra, rb = primary_results(records[a]), primary_results(records[b])
        return [(run, ra[run], rb[run]) for run in sorted(ra) if run in rb]

    if workload in ("torus-stream", "rgg-hotspot"):
        for mode in BATCH_MODES:
            near, two = f"nearest.{mode}", f"two-choice.{mode}"
            for run, n, t in paired(near, two):
                if not t["max_load"] < n["max_load"]:
                    fail([near, two], f"run {run}: two-choice max load "
                         f"{t['max_load']} not below nearest {n['max_load']}")
                if workload == "torus-stream" and \
                        not n["comm_cost"] < t["comm_cost"]:
                    fail([near, two], f"run {run}: nearest comm cost "
                         f"{n['comm_cost']} not below two-choice "
                         f"{t['comm_cost']}")
    if workload == "cdn-hotspot":
        for run, r in primary_results(records["balancer.mc4"]).items():
            if not r["origin_offload"] >= 0.99:
                fail(["balancer.mc4"],
                     f"call {run}: origin offload {r['origin_offload']} "
                     "below 0.99")
    return failures


def check_records(workload, records):
    """All checks over a workload's cell records: {cell: [errors]}."""
    failures = {}
    for name, record in records.items():
        errors = []
        for result in cell_results(record):
            errors += check_result(result, record)
        errors += cross_check(record)
        if errors:
            failures[name] = errors
    for name, errors in shape_checks(workload, records).items():
        failures.setdefault(name, []).extend(errors)
    return failures


# ---------------------------------------------------------------------------
# Bench binary output -> metrics.
# ---------------------------------------------------------------------------

def parse_bench_output(text):
    """Split the bench binary's JSON lines into a dict of its records:
    host, setup, reference (untraced runs only), cells (by name) and end."""
    records = {"reference": None, "cells": {}}
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "cell":
            records["cells"][record["cell"]] = record
        elif kind in ("host", "setup", "reference", "end"):
            records[kind] = record
    if any(k not in records for k in ("host", "setup", "end")) or \
            (records["reference"] is None and not records["host"]["trace"]):
        raise BenchError("bench binary output is incomplete")
    if sorted(records["cells"]) != sorted(cell_names()):
        raise BenchError(f"bench binary ran cells {sorted(records['cells'])}, "
                         f"expected {sorted(cell_names())}")
    return records


def timed_reps(record):
    return [rep for rep in record["reps"] if not rep["warmup"]]


def cpu_rate(reps):
    """Requests served per CPU-second over the timed calls `reps`.

    The timed cells are single-threaded, so on an idle host this is their
    wall-clock rate; CPU time leaves out the time the process waited for a
    core, hypervisor steal included. The total over all calls rather than
    the median of per-call rates: the host alternates between fast and slow
    phases, and the median of such a two-peaked sample jumps from one peak
    to the other as their shares cross a half.
    """
    return (sum(rep["result"]["served"] for rep in reps) /
            sum(rep["cpu_seconds"] for rep in reps))


# One reference second is the CPU time the bench binary's reference kernel
# takes for this many steps: about a second on the idle 4-core x86 VM the
# benchmark was tuned on, so rates per reference second read close to rates
# per second there.
REF_STEPS_PER_S = 8.0e7


def host_speed(reference):
    """Reference-kernel steps per CPU-second over the run's timed rounds."""
    reps = timed_reps(reference)
    return (reference["steps_per_call"] * len(reps) /
            sum(rep["cpu_seconds"] for rep in reps))


def end_to_end_metrics(records):
    """Each timed cell's requests per reference second: its requests per
    CPU-second divided by the host's speed in the same run. On a shared host
    the neighbours' load moves the speed of whole runs by up to a third;
    the reference kernel, interleaved with the cells and running no library
    code, moves with it, so the quotient keeps what the program changed."""
    cells = records["cells"]
    seconds_per_ref_s = REF_STEPS_PER_S / host_speed(records["reference"])
    metrics = {
        "setup_s": statistics.median(records["setup"]["trials"]),
        "peak_rss_mb": records["end"]["peak_rss_mb"],
    }
    for name in timed_cell_names():
        metrics[f"req_per_ref_s.{name}"] = \
            cpu_rate(timed_reps(cells[name])) * seconds_per_ref_s
    return metrics


def summed_layers(setup, cells):
    total = dict(setup.get("layers", {}))
    for record in cells.values():
        for key, value in record.get("layers", {}).items():
            total[key] = total.get(key, 0.0) + value
        layers = record.get("layers", {})
        if "traced_s" in layers:
            overhead = layers["traced_s"] - layers["untraced_s"]
            total["overhead_s"] = total.get("overhead_s", 0.0) + overhead
    total["answers"] = (total.get("exact_answers", 0.0) +
                        total.get("landmark_answers", 0.0))
    total["spec_attempts"] = (total.get("spec_hits", 0.0) +
                              total.get("spec_conflicts", 0.0))
    total["lookups"] = total.get("hits", 0.0) + total.get("misses", 0.0)
    return total


def per_layer_metrics(setup, cells):
    total = summed_layers(setup, cells)
    metrics = {}
    for name, (_, how) in PER_LAYER.items():
        if isinstance(how, str):
            metrics[name] = total.get(how, 0.0)
        else:
            num, den, scale = how
            d = total.get(den, 0.0)
            metrics[name] = total.get(num, 0.0) / d * scale if d else 0.0
    return metrics


def cell_overheads(cells):
    """Tracing overhead per cell: (traced - untraced) / untraced wall time."""
    out = {}
    for name, record in cells.items():
        layers = record.get("layers", {})
        if layers.get("untraced_s"):
            out[name] = ((layers["traced_s"] - layers["untraced_s"]) /
                         layers["untraced_s"])
    return out


def counted_requests(record):
    """(attempted, failed-by-drop) over every timed or traced call."""
    calls = [rep["result"] for rep in record.get("reps", [])]
    if not calls:
        calls = [record["result"]] * record.get("calls", 1)
    attempted = sum(r["attempted"] for r in calls)
    dropped = sum(r["dropped"] + r.get("lost", 0) for r in calls)
    return attempted, dropped


def assemble(spec, workload, text, trace):
    """Build the final result object from the bench binary's output."""
    records = parse_bench_output(text)
    host, setup, cells = records["host"], records["setup"], records["cells"]
    failures = check_records(workload, cells)
    attempted = failed = 0
    for name, record in cells.items():
        cell_attempted, cell_dropped = counted_requests(record)
        attempted += cell_attempted
        failed += cell_attempted if name in failures else cell_dropped
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer_metrics(setup, cells) if trace else \
        end_to_end_metrics(records)
    if set(values) != {m["name"] for m in declared}:
        raise BenchError("computed metrics do not match BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    context = {
        "host_cores": host["host_cores"], "compiler": host["compiler"],
        "build_type": host["build_type"], "ndebug": host["ndebug"],
        "workload": workload, "seed": host["seed"], "trace": trace,
        "cells": {name: {"requests_per_run": r["requests_per_run"],
                         "runs_per_call": r["runs_per_call"],
                         "calls": len(r["reps"]) if "reps" in r
                         else r.get("calls", 1)}
                  for name, r in cells.items()},
        "failures": failures,
    }
    if trace:
        context["trace_overhead"] = cell_overheads(cells)
    else:
        # The raw figures behind the end-to-end rates.
        context["host_speed_steps_per_s"] = host_speed(records["reference"])
        context["req_per_cpu_s"] = {
            name: cpu_rate(timed_reps(cells[name]))
            for name in timed_cell_names()}
    return result, context, cells


def validate_result(result, spec, trace):
    """Return the ways `result` breaks the output schema."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(want):
        errors.append("metric names differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(metric)}")
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value != value or value in (float("inf"), float("-inf")):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if want.get(name) != metric["unit"]:
            errors.append(f"{name}: unit {metric['unit']!r}")
        if not trace and isinstance(value, (int, float)) and value <= 0:
            errors.append(f"{name}: end-to-end value must be positive")
    return errors
