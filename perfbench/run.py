#!/usr/bin/env python3
"""Census benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds census_bench from ../src (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build/, then runs one workload, each repetition in a fresh process:

  --trace 0  a discarded reference run (the workload itself, or its twin for
             table1_store and table1_loopback), then measured repetitions
             until --seconds have passed (at least MIN_REPS). Every output
             digest is checked; the end-to-end metrics are medians.
  --trace 1  the reference run, one untraced repetition, then one traced
             process; prints self time per layer and the per-layer metrics.

Everything before the last stdout line is the human-readable report; the
last line is the JSON result. Build output and library logs go to stderr.
Spill directories and span files live under .bench_work/ and are removed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("table1", "census_sweep", "table1_store", "table1_loopback")
DEFAULT_SEED = 20210413
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
LAYERS = ("topo", "scan", "sim", "wire", "store", "core", "net")
COUNTS = ("probes", "v4_joined", "v4_survivors", "v6_survivors", "alias_sets",
          "scan1_responsive", "scan2_responsive")


class BenchError(Exception):
    pass


def report(line=""):
    print(line, flush=True)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {what} {path}: {e}")


# ---------------------------------------------------------------- build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources src/ not found beside perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "census_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def configure():
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    def compile_():
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and compile_():
        return os.path.join(build_dir, "census_bench")
    # No build yet, or a cache another source tree left: configure afresh.
    shutil.rmtree(build_dir, ignore_errors=True)
    if not (configure() and compile_()):
        raise BenchError("build failed")
    return os.path.join(build_dir, "census_bench")


# ---------------------------------------------------------------- children

def run_child(binary, args):
    """Runs one census_bench process; returns (last-line JSON, wall s)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"census_bench {' '.join(args)} timed out")
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"census_bench {' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"census_bench {' '.join(args)} printed no JSON result")
    if not isinstance(out, dict) or "digest" not in out:
        raise BenchError(f"census_bench {' '.join(args)} result lacks a digest")
    return out, elapsed


class Workdir:
    """Scratch space under .bench_work/ for spill dirs and span files."""

    def __init__(self, workload):
        self.base = os.path.join(ROOT, ".bench_work")
        self.path = os.path.join(self.base, f"{workload}-{os.getpid()}")
        self.count = 0

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:
            pass

    def fresh(self, stem):
        self.count += 1
        return os.path.join(self.path, f"{stem}{self.count}")


def run_workload(binary, mode, workload, seed, work, extra=()):
    """One child run of `workload`; table1_store gets a fresh spill dir that
    is removed afterwards."""
    args = [mode, "--workload", workload, "--seed", str(seed)] + list(extra)
    spill = None
    if workload == "table1_store":
        spill = work.fresh("spill")
        args += ["--spill-dir", spill]
    try:
        return run_child(binary, args)
    finally:
        if spill:
            shutil.rmtree(spill, ignore_errors=True)


def reference_run(binary, workload, seed, work):
    """The discarded warm-up. For table1_store it is the in-RAM table1 run
    at the same seed and for table1_loopback the sim-fabric twin, so its
    digest is the one the workload must reproduce."""
    if workload == "table1_store":
        return run_workload(binary, "run", "table1", seed, work)[0]
    if workload == "table1_loopback":
        return run_workload(binary, "run", workload, seed, work, ["--sim-twin"])[0]
    return run_workload(binary, "run", workload, seed, work)[0]


def reference_problems(workload, seed, ref):
    """The reference must be consistent and, at the default seed, equal the
    committed golden values."""
    problems = [] if ref.get("consistent") is True else ["reference output inconsistent"]
    if seed != DEFAULT_SEED:
        return problems
    golden = load_json(GOLDEN, "golden values").get(workload)
    if not isinstance(golden, dict):
        return problems + [f"no golden values for {workload}"]
    return problems + [f"{key} {ref.get(key)} != golden {value}"
                       for key, value in golden.items() if ref.get(key) != value]


def output_problems(out, ref):
    problems = []
    if out["digest"] != ref["digest"]:
        problems.append(f"digest {out['digest']} != reference {ref['digest']}")
    if out.get("consistent") is not True:
        problems.append("funnel accounting inconsistent or output empty")
    return problems


def format_counts(out):
    return ", ".join(f"{key} {out[key]}" for key in COUNTS if key in out)


# ---------------------------------------------------------------- modes

def measured(binary, workload, seed, seconds, work):
    ref = reference_run(binary, workload, seed, work)
    ref_problems = reference_problems(workload, seed, ref)

    reps, durations = [], []
    start = time.monotonic()
    while True:
        out, elapsed = run_workload(binary, "run", workload, seed, work)
        reps.append(out)
        durations.append(elapsed)
        spent = time.monotonic() - start
        if len(reps) >= MIN_REPS and spent + statistics.median(durations) > seconds:
            break

    # Operations: one batch job per repetition; on the loopback workload
    # every datagram through the kernel, where each kernel send or receive
    # error fails one datagram and a wrong output fails the whole run.
    per_datagram = workload == "table1_loopback"
    attempted = failed = 0
    problems = list(ref_problems)
    for out in reps:
        ops = out["datagrams_sent"] if per_datagram else 1
        attempted += ops
        rep_problems = output_problems(out, ref)
        problems += rep_problems
        if rep_problems or ref_problems:
            failed += ops
        elif per_datagram:
            failed += min(out["net_errors"], ops)
            if out["net_errors"]:
                problems.append(f"{out['net_errors']} kernel send/receive errors")

    samples = {
        "pipeline_s": [out["pipeline_s"] for out in reps],
        "probes_per_s": [out["probes"] / out["pipeline_s"] for out in reps],
        "setup_s": [out["setup_s"] for out in reps],
        "peak_rss_mb": [out["peak_rss_mb"] for out in reps],
    }
    units = {"pipeline_s": "s", "probes_per_s": "probes/s", "setup_s": "s",
             "peak_rss_mb": "MB"}

    report(f"workload {workload}  seed {seed}  {len(reps)} measured runs + 1 "
           f"reference run, each a fresh process")
    # With fewer than eleven samples no percentile has ten samples beyond
    # it, so the maximum is the highest one the sample supports.
    for name, values in samples.items():
        report(f"  {name:<13} median {statistics.median(values):<14.6g} "
               f"max {max(values):<14.6g} {units[name]:<9} (n={len(values)})")
    error_rate = failed / attempted if attempted else 1.0
    unit = "datagrams" if per_datagram else "runs"
    report(f"  {'error_rate':<13} {error_rate:.6g} ({failed} of {attempted} {unit} failed)")
    report(f"  output digest {ref['digest']}: {format_counts(ref)}")
    for problem in sorted(set(problems)):
        report(f"  CHECK FAILED: {problem}")
    if not problems:
        anchor = "golden values" if seed == DEFAULT_SEED else "reference run"
        report(f"  check: every run reproduces the {anchor}")

    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items()}
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def self_times(spans):
    """Self time per (tree, layer): a span's wall minus its children's.
    Trees are named by their root span: pipeline, replay, or set-up (the
    world build before the pipeline). Also returns the unattributed
    fraction: self time of pipeline spans that have children over the
    pipeline wall."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)

    def wall(s):
        return s["end_ms"] - s["start_ms"]

    def tree_of(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s["layer"] if s["layer"] in ("pipeline", "replay") else "setup"

    totals, unattributed = {}, 0.0
    for s in spans:
        own = wall(s) - sum(wall(c) for c in children.get(s["id"], []))
        tree = tree_of(s)
        totals[(tree, s["layer"])] = totals.get((tree, s["layer"]), 0.0) + own
        if tree == "pipeline" and s["id"] in children:
            unattributed += own
    roots = [s for s in spans if s["parent"] < 0 and s["layer"] == "pipeline"]
    pipeline_ms = wall(roots[0]) if roots else 0.0
    return totals, (unattributed / pipeline_ms if pipeline_ms > 0 else 0.0)


def traced(binary, workload, seed, work, per_layer):
    ref = reference_run(binary, workload, seed, work)
    base, _ = run_workload(binary, "run", workload, seed, work)
    spans_path = work.fresh("spans") + ".jsonl"
    out, _ = run_workload(binary, "trace", workload, seed, work,
                          ["--spans", spans_path])
    try:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
    except (OSError, ValueError) as e:
        raise BenchError(f"unreadable span file: {e}")

    problems = reference_problems(workload, seed, ref) + output_problems(base, ref)
    if out["digest"] != base["digest"]:
        problems.append(f"traced digest {out['digest']} != untraced {base['digest']}")

    values = dict(out["metrics"])
    values["trace.overhead_frac"] = out["pipeline_s"] / base["pipeline_s"] - 1.0
    totals, values["trace.unattributed_frac"] = self_times(spans)

    run_id = spans[0]["run"] if spans else "?"
    report(f"traced run  workload {workload}  seed {seed}  run {run_id}  "
           f"({len(spans)} spans)")
    report(f"  pipeline {out['pipeline_s']:.4f} s traced vs {base['pipeline_s']:.4f} s "
           f"untraced: trace.overhead_frac {values['trace.overhead_frac']:.4f}")
    report(f"  trace.unattributed_frac {values['trace.unattributed_frac']:.4f} "
           f"(self time of pipeline spans that have children / pipeline wall)")
    report(f"  self time per layer, ms   {'setup':>10} {'pipeline':>10} {'replay':>10}")
    for layer in LAYERS:
        cells = []
        for tree in ("setup", "pipeline", "replay"):
            ms = totals.get((tree, layer))
            cells.append(f"{ms:>10.2f}" if ms is not None else f"{'n/a':>10}")
        report(f"    {layer:<22} {' '.join(cells)}")
    report("  per-layer metrics (n/a: the workload does not use that layer; "
           "the JSON line carries 0)")
    for name, unit in per_layer.items():
        shown = f"{values[name]:.6g} {unit}" if name in values else "n/a"
        report(f"    {name:<32} {shown}")
    report(f"  output digest {out['digest']}: {format_counts(base)}")
    for problem in problems:
        report(f"  CHECK FAILED: {problem}")
    if not problems:
        report("  check: the traced rebuild reproduces the untraced output")

    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in per_layer.items()}
    return {"correct": not problems, "attempted": 1,
            "failed": 1 if problems else 0, "metrics": metrics}


# ---------------------------------------------------------------- main

def declared(bench, workload, trace):
    """The metric names and units BENCHMARK.json declares for this mode."""
    if workload not in [w.get("name") for w in bench.get("workloads", [])]:
        raise BenchError(f"workload {workload} is not declared in BENCHMARK.json")
    key = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: m["unit"] for m in bench.get(key, [])}
    if not metrics:
        raise BenchError(f"BENCHMARK.json declares no {key} metrics")
    return metrics


def check_result(line, metrics):
    """Fails closed when the result line misses or mistypes anything."""
    parsed = json.loads(line)
    if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result keys drifted")
    if not isinstance(parsed["attempted"], int) or parsed["attempted"] < 1:
        raise BenchError("attempted must be a positive whole number")
    if not isinstance(parsed["failed"], int) or parsed["failed"] < 0:
        raise BenchError("failed must be a whole number")
    if set(parsed["metrics"]) != set(metrics):
        raise BenchError("result metrics differ from BENCHMARK.json")
    for name, unit in metrics.items():
        entry = parsed["metrics"][name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            raise BenchError(f"metric {name} malformed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")

    # A SIGTERM (a caller's timeout) must not orphan a child: SystemExit
    # unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics = declared(load_json(BENCHMARK, "benchmark definition"),
                           args.workload, args.trace)
        binary = build()
        with Workdir(args.workload) as work:
            if args.trace:
                result = traced(binary, args.workload, args.seed, work, metrics)
            else:
                result = measured(binary, args.workload, args.seed, args.seconds, work)
        line = json.dumps(result)
        check_result(line, metrics)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
