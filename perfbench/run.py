#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the bench binary from the repository's sources (Release, into
$CARGO_TARGET_DIR or .bench_build under the repository root, a relative
path being taken from that root), runs one workload, checks every cell's
outputs and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer
ones, and the spans go to <build>/spans/<workload>-<seed>.json. The
bench binary's raw per-cell records are kept in <build>/runs/. The line
before it holds the host context (cores, compiler, build type, per-cell
request and replication counts, any check failures; untraced, also the
host's reference-kernel speed and each cell's requests per CPU-second).

Exits non-zero without printing a result when the build, the bench binary or the
metric assembly fails; a failed output check still prints the result, with
"correct": false, and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

BUILD_TIMEOUT_S = 840
BENCH_SLACK_S = 120


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(directory):
    if not (ROOT / "src").is_dir():
        raise metrics.BenchError(
            f"library sources not found under {ROOT}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in (["cmake", "-S", str(HERE), "-B", str(directory),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(directory), "-j", "4"]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
        if done.returncode != 0:
            raise metrics.BenchError(f"build step failed: {' '.join(step)}")
    return directory / "perfbench"


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values[:8])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = metrics.load_benchmark(ROOT)
        directory = build_dir()
        binary = build(directory)
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        spans = directory / "spans" / f"{args.workload}-{args.seed}.json"
        if args.trace:
            spans.parent.mkdir(parents=True, exist_ok=True)
            command += ["--spans", str(spans)]
        ticks_before = cpu_ticks()
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=False,
                              timeout=args.seconds + BENCH_SLACK_S)
        if done.returncode != 0:
            raise metrics.BenchError(
                f"bench binary exited with code {done.returncode}")
        raw = directory / "runs" / \
            f"{args.workload}-{args.seed}-trace{args.trace}.jsonl"
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_text(done.stdout)
        result, context, cells = metrics.assemble(
            spec, args.workload, done.stdout, bool(args.trace))
        ticks_after = cpu_ticks()
        if ticks_before and ticks_after and \
                ticks_after[1] > ticks_before[1]:
            # Time the hypervisor ran other guests on this machine's CPUs:
            # the main source of run-to-run spread on a shared host.
            context["host_steal_pct"] = 100.0 * (
                ticks_after[0] - ticks_before[0]) / (
                ticks_after[1] - ticks_before[1])
        errors = metrics.validate_result(result, spec, bool(args.trace))
        if errors:
            raise metrics.BenchError("result schema: " + "; ".join(errors))
        if args.trace:
            document = json.loads(spans.read_text())
            document["cells"] = {
                name: {"layers": record["layers"],
                       "trace_overhead": context["trace_overhead"].get(name)}
                for name, record in cells.items()}
            spans.write_text(json.dumps(document) + "\n")
            context["spans"] = os.path.relpath(spans, ROOT)
    except (metrics.BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if not context["ndebug"]:
        print("perfbench: warning: the bench binary was built without NDEBUG; "
              "its timings are not comparable", file=sys.stderr)
    for name, errors in context["failures"].items():
        for error in errors:
            print(f"perfbench: check failed in {name}: {error}",
                  file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
