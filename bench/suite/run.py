#!/usr/bin/env python3
"""Benchmark suite for vodsim: build, run, check, report.

Builds bench/suite (the vodsim library plus the vodsim_suite binary) into
.bench_build/, then runs reps of the selected workloads, one child process
per (workload, rep), one at a time, workloads interleaved round-robin. It
checks every rep's simulated results, prints every metric by name with its
unit, writes a JSON record with host metadata and a Chrome trace of the
benchmark's spans under .bench_build/results/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (which need the traced reps, the
one-worker reps and the layer replays that only --trace 1 runs).

    python3 bench/suite/run.py --seed 1                  # all workloads
    python3 bench/suite/run.py --workload skewed_drm --seed 3 --seconds 20 --trace 0
    python3 bench/suite/run.py --smoke                   # < 30 s sanity pass
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = ROOT / "bench" / "suite"
BUILD = ROOT / ".bench_build" / "suite"
RESULTS = ROOT / ".bench_build" / "results"
BINARY = BUILD / "vodsim_suite"

WORKLOADS = ["fig6_matrix", "skewed_drm", "sharded_ramp", "rack_storm"]
SMOKE_SCALE = 0.05
# The trace-equivalence check replays a shorter horizon: the property does
# not depend on run length.
SELF_CHECK_SCALE = 0.25
# Trace events per simulated event stay below 5 on every workload (the
# sharded ramp's coordinator is the densest), so a ring this large never
# overwrites; the ring only touches the pages it fills.
TRACE_EVENTS_PER_EVENT = 8
CHILD_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1, help="request-trace seed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds of reps until this many "
                             "seconds of reps have run")
    parser.add_argument("--reps", type=int, default=5,
                        help="minimum rounds of reps")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=1,
                        help="1: also run traced and one-worker reps "
                             "and the layer replays, and report per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SCALE:g} of every horizon, one rep")
    args = parser.parse_args()
    if args.smoke:
        args.reps, args.seconds = 1, 0.0
    args.workloads = args.workload or WORKLOADS
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    return args


def build():
    """Configures (once) and builds vodsim_suite; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "vodsim_suite",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.exists()


def child_env():
    # The library honours VODSIM_* overrides; the suite measures the
    # default engine whatever the caller's shell exports.
    return {k: v for k, v in os.environ.items() if not k.startswith("VODSIM_")}


def invoke(*args):
    """Runs one vodsim_suite process; returns its JSON line, or None on failure."""
    command = [str(BINARY), *map(str, args)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(command)}")
        return None
    if done.returncode != 0:
        log(f"exit {done.returncode}: {' '.join(command)}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"unreadable output: {' '.join(command)}")
        return None


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, problems):
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{label}: {problem}")
            log(f"FAILED {label}: {problem}")
        return not problems


def rep_problems(result, digest):
    """What is wrong with one rep's output, given the set's first digest."""
    if result is None:
        return ["vodsim_suite failed"]
    problems = []
    if digest is not None and result["digest"] != digest:
        problems.append(f"digest {result['digest']} != {digest}")
    if result["check.bound_violations"]:
        problems.append("utilization above the analytic bound + 0.01")
    if result["check.expect_continuity"] and result["check.continuity_violations"]:
        problems.append(f"{result['check.continuity_violations']} continuity violations")
    return problems


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    return values * 3 if len(values) == 1 else statistics.quantiles(values, n=4)


def run_set(args, spans_dir, ledger):
    """Runs the set; returns {workload: {variant: [vodsim_suite results]}}.

    Every round runs each workload's variants back to back: the plain rep
    and, with --trace 1, the same rep with one drain worker and with the
    trace recorder attached, so their ratios to the plain rep compare reps
    taken under the same host conditions. After the rounds come the
    trace-equivalence check and, with --trace 1, one rep followed by the
    layer replays.
    """
    # Drain workers of the sharded workload; the calling thread drains too,
    # so a rep runs at most min(4, nproc) strands.
    threads = max(1, min(4, os.cpu_count() or 1) - 1)
    variants = {"reps": ["--threads", threads]}
    if args.trace:
        variants["one_worker"] = ["--threads", 1]
        variants["traced"] = ["--threads", threads, "--traced"]
    state = {w: {"chase": [], "replay": [], **{v: [] for v in variants}}
             for w in args.workloads}
    digests = {}

    def rep(w, label, flags, spans):
        result = invoke("--mode", "rep", "--workload", w, "--seed", args.seed,
                        "--scale", args.scale, "--spans", spans_dir / spans, *flags)
        problems = rep_problems(result, digests.get(w))
        if result is not None and result.get("check.trace_dropped"):
            problems.append(f"trace ring overwrote {result['check.trace_dropped']} events")
        if not ledger.check(f"{w} {label}", problems):
            return None
        digests.setdefault(w, result["digest"])
        return result

    start = time.monotonic()
    rounds = 0
    while rounds < args.reps or time.monotonic() - start < args.seconds:
        for w in args.workloads:
            chase = invoke("--mode", "chase")
            if chase is not None:
                state[w]["chase"].append(chase["host.chase_ns"])
            for variant, flags in variants.items():
                if variant == "traced":
                    if not state[w]["reps"]:
                        continue
                    events = state[w]["reps"][-1]["des.events"]
                    flags = flags + ["--trace-capacity",
                                     int(TRACE_EVENTS_PER_EVENT * events) + 4096]
                result = rep(w, f"{variant} {rounds}", flags, f"{w}-{variant}{rounds}.json")
                if result is not None:
                    state[w][variant].append(result)
        rounds += 1
    log(f"{rounds} rounds of reps in {time.monotonic() - start:.1f} s")

    for w in args.workloads:
        check = invoke("--mode", "self-check", "--workload", w,
                       "--scale", args.scale * SELF_CHECK_SCALE, "--threads", threads)
        ledger.check(f"{w} self-check",
                     ["vodsim_suite failed"] if check is None else
                     [] if check["check.self_generate_equal"] else
                     ["trace-fed run differs from the self-generating run"])
        if args.trace:
            result = rep(w, "replay", ["--threads", threads, "--replay"], f"{w}-replay.json")
            if result is not None:
                state[w]["replay"].append(result)
    return state


def summarize(extra, spec):
    """Metric name -> {value, unit, median, q1, q3, n} for one workload."""
    reps = extra["reps"]
    if not reps:
        return {}
    out = {}

    def put(name, values):
        values = list(values)
        q1, med, q3 = quartiles(values)
        # run_s is the fastest rep, not the median: on a shared VM a rep's
        # host time is bimodal, with a slow mode (about 1.8x) that
        # co-tenants set for seconds at a time, so the median moves with
        # the mix of modes while the minimum follows the code (README.md).
        value = min(values) if name == "run_s" else med
        out[name] = {"value": value, "unit": spec[name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "n": len(values)}

    for name in spec:
        if name in reps[0]:
            put(name, (r[name] for r in reps))
    if extra["chase"]:
        put("host.chase_ns", extra["chase"])
    run_s = out["run_s"]["median"]
    for variant, metric in (("one_worker", "engine.thread_speedup"),
                            ("traced", "obs.trace_overhead")):
        if extra.get(variant):
            put(metric, [statistics.median(r["run_s"] for r in extra[variant]) / run_s])
    for variant in ("traced", "replay"):
        for name in spec:
            if extra.get(variant) and name in extra[variant][0] and name not in out:
                put(name, (r[name] for r in extra[variant]))
    if "sched.recomputes" in out and "sched.allocate_us" in out:
        value = lambda name: out[name]["value"]
        sched = value("sched.recomputes") * value("sched.allocate_us") * 1e-6
        admission = value("admission.arrivals") * value("admission.decide_us") * 1e-6
        cluster = value("cluster.stream_advances") * value("cluster.advance_ns") * 1e-9
        put("sched.est_s", [sched])
        put("admission.est_s", [admission])
        put("cluster.est_s", [cluster])
        put("run.unattributed_frac", [1.0 - (sched + admission + cluster) / run_s])
    return out


def host_record():
    record = {"cpu": platform.processor() or "unknown", "nproc": os.cpu_count(),
              "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "git_sha": None, "git_dirty": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True)
        if sha.returncode == 0:
            record["git_sha"] = sha.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    info = invoke("--mode", "info")
    if info is not None:
        record.update(info)
    return record


def merge_spans(spans_dir, path):
    events = []
    for pid, part in enumerate(sorted(spans_dir.glob("*.json"))):
        for event in json.loads(part.read_text()):
            event["pid"] = pid
            event["args"]["process"] = part.stem
            events.append(event)
        part.unlink()
    spans_dir.rmdir()
    path.write_text(json.dumps(events))


def main():
    args = parse_args()
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in spec_file["end_to_end"] + spec_file["per_layer"]}
    reported = [m["name"] for m in spec_file["per_layer" if args.trace else "end_to_end"]]

    if not build():
        log("build failed")
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    label = f"{stamp}-seed{args.seed}-trace{args.trace}"
    spans_dir = RESULTS / f"{label}-spans"
    spans_dir.mkdir()

    ledger = Ledger()
    state = run_set(args, spans_dir, ledger)
    summary = {w: summarize(state[w], spec) for w in args.workloads}

    metrics = {}
    for w in args.workloads:
        print(f"== {w} (seed {args.seed}) ==")
        for name, m in summary[w].items():
            print(f"  {name:30s} {m['value']:14.6g} {m['unit']:6s} "
                  f"median {m['median']:.6g} q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"n {m['n']}")
        for name in reported:
            if name not in summary[w]:
                ledger.failures.append(f"{w}: metric {name} missing")
                continue
            key = name if len(args.workloads) == 1 else f"{w}.{name}"
            metrics[key] = {"value": summary[w][name]["value"], "unit": spec[name]["unit"]}

    trace_path = RESULTS / f"{label}-trace.json"
    merge_spans(spans_dir, trace_path)
    record = {"host": host_record(), "seed": args.seed, "seconds": args.seconds,
              "min_reps": args.reps, "scale": args.scale, "trace": args.trace,
              "attempted": ledger.attempted, "failures": ledger.failures,
              "workloads": summary, "chrome_trace": trace_path.name,
              "raw": {w: state[w]["reps"] for w in args.workloads}}
    record_path = RESULTS / f"{label}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(f"record: {record_path.relative_to(ROOT)}")

    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
