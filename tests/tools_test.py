#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py and tools/validate_trace.py, the
usage-error and artifact-write contracts of vodsim_cli, vodsim_tournament,
the example programs and the fuzzer, and the bench and flag citations in
the docs.

Run directly or via ctest (registered as `tools_py`). Stdlib only; the
tools are exercised as subprocesses, exactly as CI invokes them, so exit
codes and stderr contracts are part of what is tested.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir))
TOOLS_DIR = os.path.join(REPO_DIR, "tools")
BENCH_DIFF = os.path.join(TOOLS_DIR, "bench_diff.py")
VALIDATE_TRACE = os.path.join(TOOLS_DIR, "validate_trace.py")


def find_binary(subdir, name):
    """A binary from the build tree: ctest runs this file in
    <build>/tests; a direct run from the repository root uses ./build."""
    for build in (os.path.join(os.getcwd(), os.pardir), os.getcwd(),
                  os.path.join(REPO_DIR, "build")):
        path = os.path.join(build, subdir, name)
        if os.access(path, os.X_OK):
            return path
    return None


def find_cli():
    return find_binary("examples", "vodsim_cli")


def run_tool(script, *args):
    return subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True)


def bench_json(path, benchmarks):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"benchmarks": benchmarks}, handle)


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.before = os.path.join(self.dir.name, "before.json")
        self.after = os.path.join(self.dir.name, "after.json")

    def tearDown(self):
        self.dir.cleanup()

    def test_reports_speedup_and_geomean(self):
        bench_json(self.before, [
            {"name": "BM_A", "items_per_second": 100.0},
            {"name": "BM_B", "real_time": 20.0},
        ])
        bench_json(self.after, [
            {"name": "BM_A", "items_per_second": 200.0},
            {"name": "BM_B", "real_time": 10.0},
        ])
        result = run_tool(BENCH_DIFF, self.before, self.after)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("2.00x", result.stdout)
        self.assertIn("geometric-mean speedup over 2", result.stdout)

    def test_missing_and_renamed_benchmarks_are_not_an_error(self):
        bench_json(self.before, [
            {"name": "BM_Old", "items_per_second": 100.0},
            {"name": "BM_Common", "items_per_second": 50.0},
        ])
        bench_json(self.after, [
            {"name": "BM_New", "items_per_second": 100.0},
            {"name": "BM_Common", "items_per_second": 50.0},
        ])
        result = run_tool(BENCH_DIFF, self.before, self.after)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("BM_Old", result.stdout)
        self.assertIn("BM_New", result.stdout)

    def test_nameless_records_are_skipped_not_a_crash(self):
        # Regression: records lacking both run_name and name used to raise
        # KeyError inside load_benchmarks.
        bench_json(self.before, [
            {"items_per_second": 1.0},                      # no name at all
            {"name": "", "items_per_second": 2.0},          # empty name
            {"name": "BM_Real", "items_per_second": 100.0},
        ])
        bench_json(self.after, [
            {"name": "BM_Real", "items_per_second": 150.0},
        ])
        result = run_tool(BENCH_DIFF, self.before, self.after)
        self.assertEqual(result.returncode, 0,
                         "nameless record crashed bench_diff: " + result.stderr)
        self.assertIn("BM_Real", result.stdout)

    def test_median_aggregate_preferred_over_repetitions(self):
        bench_json(self.before, [
            {"name": "BM_X/repeats:3", "run_name": "BM_X",
             "run_type": "iteration", "items_per_second": 90.0},
            {"name": "BM_X/repeats:3_median", "run_name": "BM_X",
             "run_type": "aggregate", "aggregate_name": "median",
             "items_per_second": 100.0},
            {"name": "BM_X/repeats:3_stddev", "run_name": "BM_X",
             "run_type": "aggregate", "aggregate_name": "stddev",
             "items_per_second": 5.0},
        ])
        bench_json(self.after, [
            {"name": "BM_X", "items_per_second": 100.0},
        ])
        result = run_tool(BENCH_DIFF, self.before, self.after)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("1.00x", result.stdout)  # median 100 vs 100, not 90 or 5

    def test_threshold_flags_regressions(self):
        bench_json(self.before, [{"name": "BM_A", "items_per_second": 100.0}])
        bench_json(self.after, [{"name": "BM_A", "items_per_second": 50.0}])
        result = run_tool(BENCH_DIFF, self.before, self.after,
                          "--threshold", "10")
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        # Within threshold: clean exit.
        bench_json(self.after, [{"name": "BM_A", "items_per_second": 95.0}])
        result = run_tool(BENCH_DIFF, self.before, self.after,
                          "--threshold", "10")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_filter_restricts_comparison(self):
        bench_json(self.before, [
            {"name": "BM_FluidKeyBatch/300", "items_per_second": 100.0},
            {"name": "BM_EndToEnd", "items_per_second": 100.0},
        ])
        bench_json(self.after, [
            {"name": "BM_FluidKeyBatch/300", "items_per_second": 300.0},
            {"name": "BM_EndToEnd", "items_per_second": 50.0},
        ])
        result = run_tool(BENCH_DIFF, self.before, self.after,
                          "--filter", "BM_Fluid")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("BM_FluidKeyBatch/300", result.stdout)
        self.assertNotIn("BM_EndToEnd", result.stdout)
        self.assertIn("3.00x", result.stdout)
        # The filtered-out regression must not trip the threshold either.
        result = run_tool(BENCH_DIFF, self.before, self.after,
                          "--filter", "BM_Fluid", "--threshold", "10")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_snapshot_format_diffs_across_prs(self):
        # bench/BENCH_prN.json shape: "benchmarks" is a dict of hand-measured
        # rows. Kernel rows are ns (time/op); end-to-end rows are events/sec
        # (throughput). Speedup must stay oriented so > 1.0 means better.
        with open(self.before, "w", encoding="utf-8") as handle:
            json.dump({"benchmarks": {
                "BM_FluidAdvanceBatch/streams:300": {
                    "unit": "ns per advance", "exact": 2000, "fast": 1000},
                "end_to_end": {
                    "unit": "simulator events/sec", "exact": 100.0,
                    "fast": None},
            }}, handle)
        with open(self.after, "w", encoding="utf-8") as handle:
            json.dump({"benchmarks": {
                "BM_FluidAdvanceBatch/streams:300": {
                    "unit": "ns per advance", "exact": 1000, "fast": 500},
                "end_to_end": {
                    "unit": "simulator events/sec", "exact": 200.0,
                    "fast": 300.0},
            }}, handle)
        result = run_tool(BENCH_DIFF, self.before, self.after,
                          "--filter", "BM_Fluid")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("BM_FluidAdvanceBatch/streams:300[exact]", result.stdout)
        self.assertIn("BM_FluidAdvanceBatch/streams:300[fast]", result.stdout)
        self.assertNotIn("end_to_end", result.stdout)
        self.assertIn("2.00x", result.stdout)  # halved time = 2x speedup

    def test_markdown_table(self):
        bench_json(self.before, [{"name": "BM_A", "items_per_second": 1e6}])
        bench_json(self.after, [{"name": "BM_A", "items_per_second": 2e6}])
        result = run_tool(BENCH_DIFF, self.before, self.after, "--markdown")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("| benchmark | metric | before | after | speedup |",
                      result.stdout)
        self.assertIn("| BM_A |", result.stdout)


class ValidateTraceTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write(self, name, text):
        with open(self.path(name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return self.path(name)

    def test_valid_chrome_trace_passes(self):
        trace = self.write("t.json", json.dumps({"traceEvents": [
            {"ph": "b", "name": "stream", "ts": 0, "cat": "admission",
             "id": "1", "pid": 1, "tid": 1},
            {"ph": "e", "name": "stream", "ts": 5, "cat": "admission",
             "id": "1", "pid": 1, "tid": 1},
            {"ph": "C", "name": "load", "ts": 3, "pid": 1, "tid": 1,
             "args": {"mbps": 12.5}},
        ]}))
        result = run_tool(VALIDATE_TRACE, "--chrome", trace)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("all artifacts ok", result.stdout)

    def test_unpaired_async_event_fails(self):
        trace = self.write("t.json", json.dumps({"traceEvents": [
            {"ph": "b", "name": "stream", "ts": 0, "cat": "admission",
             "id": "1", "pid": 1, "tid": 1},
        ]}))
        result = run_tool(VALIDATE_TRACE, "--chrome", trace)
        self.assertEqual(result.returncode, 1)
        self.assertIn("FAIL", result.stderr)

    def jsonl_lines(self):
        events = [
            {"seq": 1, "t": 0.0, "type": "arrival", "cat": "admission",
             "server": 0, "request": 1, "video": 2, "a": 0.0, "b": 0.0,
             "shard": -1},
            {"seq": 2, "t": 1.5, "type": "admit", "cat": "admission",
             "server": 0, "request": 1, "video": 2, "a": 0.0, "b": 0.0,
             "shard": -1},
        ]
        header = {"schema": "vodsim-trace-v1", "events": len(events)}
        return [json.dumps(header)] + [json.dumps(e) for e in events]

    def test_valid_jsonl_passes(self):
        trace = self.write("t.jsonl", "\n".join(self.jsonl_lines()) + "\n")
        result = run_tool(VALIDATE_TRACE, "--jsonl", trace)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_jsonl_bad_schema_and_bad_seq_fail(self):
        lines = self.jsonl_lines()
        bad_schema = self.write("s.jsonl", "\n".join(
            [json.dumps({"schema": "nope", "events": 2})] + lines[1:]) + "\n")
        result = run_tool(VALIDATE_TRACE, "--jsonl", bad_schema)
        self.assertEqual(result.returncode, 1)
        self.assertIn("vodsim-trace-v1", result.stderr)

        swapped = self.write("q.jsonl",
                             "\n".join([lines[0], lines[2], lines[1]]) + "\n")
        result = run_tool(VALIDATE_TRACE, "--jsonl", swapped)
        self.assertEqual(result.returncode, 1)
        self.assertIn("FAIL", result.stderr)

    def test_jsonl_seq_is_per_shard(self):
        lines = self.jsonl_lines()
        event = json.loads(lines[2])
        # A shard's recorder numbers its own events: seq 0 after the
        # coordinator's seq 2 is fine, a repeat within one tag is not.
        shard_events = [dict(event, seq=0, t=2.0, shard=1),
                        dict(event, seq=1, t=2.0, shard=1)]
        header = json.dumps({"schema": "vodsim-trace-v1", "events": 4})
        merged = self.write("m.jsonl", "\n".join(
            [header] + lines[1:] + [json.dumps(e) for e in shard_events]) + "\n")
        result = run_tool(VALIDATE_TRACE, "--jsonl", merged)
        self.assertEqual(result.returncode, 0, result.stderr)

        shard_events[1]["seq"] = 0
        repeated = self.write("r.jsonl", "\n".join(
            [header] + lines[1:] + [json.dumps(e) for e in shard_events]) + "\n")
        result = run_tool(VALIDATE_TRACE, "--jsonl", repeated)
        self.assertEqual(result.returncode, 1)
        self.assertIn("for shard 1", result.stderr)

    def probe_rows(self):
        header = ("time,server,committed_mbps,reserved_mbps,active_streams,"
                  "mean_buffer_fill,pending_events,capacity_factor,retry_queue,"
                  "reachable")
        return [header,
                "0.0,0,12.0,0.0,4,0.5,7,1.0,0,1.0",
                "60.0,0,15.0,3.0,5,0.55,8,1.0,0,1.0"]

    def test_valid_probes_pass(self):
        probes = self.write("p.csv", "\n".join(self.probe_rows()) + "\n")
        result = run_tool(VALIDATE_TRACE, "--probes", probes)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_probe_header_and_time_order_enforced(self):
        rows = self.probe_rows()
        bad_header = self.write("h.csv",
                                "\n".join(["when,who"] + rows[1:]) + "\n")
        result = run_tool(VALIDATE_TRACE, "--probes", bad_header)
        self.assertEqual(result.returncode, 1)

        back_in_time = self.write("b.csv",
                                  "\n".join([rows[0], rows[2], rows[1]]) + "\n")
        result = run_tool(VALIDATE_TRACE, "--probes", back_in_time)
        self.assertEqual(result.returncode, 1)
        self.assertIn("time went backwards", result.stderr)

    def test_nothing_to_validate_is_an_error(self):
        result = run_tool(VALIDATE_TRACE)
        self.assertNotEqual(result.returncode, 0)


def run_cli(*args):
    """vodsim_cli on a tiny horizon (extra args may override it)."""
    return subprocess.run(
        [find_cli(), "--hours", "0.01", "--warmup-hours", "0", *args],
        capture_output=True, text=True, timeout=60)


def help_ranges():
    """{flag: range text} for every flag whose --help line ends in
    "; range [lo, hi)" (the field table's bounded int and real rows)."""
    result = subprocess.run([find_cli(), "--help"], capture_output=True,
                            text=True, timeout=60)
    return dict(re.findall(r"^  --([a-z0-9-]+) <value>.*\n.*; range (.+)$",
                           result.stdout, re.MULTILINE))


def out_of_range(text):
    """A value outside a "[lo, hi)" range text from --help: 10 below
    its lower end, or 10 above its upper end when it has none (never 0,
    which some flags read as "off")."""
    low, high = (float(end) for end in text[1:-1].split(", "))
    return "%g" % (low - 10 if low > float("-inf") else high + 10)


class CliUsageErrorTest(unittest.TestCase):
    """Bad input exits 2 with a message naming the flag, never an uncaught
    exception (exit 134) or a silent fallback."""

    def setUp(self):
        if find_cli() is None:
            self.skipTest("vodsim_cli not built")

    def assert_usage_error(self, args, *named):
        result = run_cli(*args)
        self.assertEqual(result.returncode, 2,
                         f"{args}: {result.returncode} {result.stderr}")
        self.assertIn("invalid configuration: ", result.stderr)
        for text in named:
            self.assertIn(text, result.stderr, args)

    def test_unknown_enum_values_are_usage_errors(self):
        for flag in ("--scheduler", "--placement", "--assignment", "--victim",
                     "--system"):
            with self.subTest(flag=flag):
                self.assert_usage_error([flag, "bogus"], "bogus", flag)

    def test_bad_values_exit_2_instead_of_aborting(self):
        cases = [
            (["--probe-period", "-1", "--probe-out", "f"], "--probe-period"),
            (["--trace-categories", "bogus", "--trace-jsonl", "f"],
             "--trace-categories"),
            (["--system", "custom", "--videos", "-3"], "--videos"),
            (["--retry", "true", "--retry-queue", "-1"], "--retry-queue"),
            (["--retry-queue", "-1"], "--retry-queue"),
            (["--theta", "5"], "--theta"),
            (["--trials", "0"], "--trials"),
            (["--migration", "maybe"], "--migration"),
            (["--servers", "2.5"], "--servers"),
            # A correlated group larger than the 5-server small system.
            (["--hours", "2", "--warmup-hours", "0", "--mtbf-hours", "1000",
              "--correlated-group", "9", "--correlated-hours", "1"],
             "failure.correlated.group_size"),
        ]
        for args, flag in cases:
            with self.subTest(args=args):
                self.assert_usage_error(args, flag)

    def test_every_bounded_table_flag_rejects_out_of_range(self):
        ranges = help_ranges()
        self.assertGreater(len(ranges), 30)
        for flag, text in ranges.items():
            value = out_of_range(text)
            with self.subTest(flag=flag, value=value):
                self.assert_usage_error([f"--{flag}", value], f"--{flag}")

    def test_set_flags_without_their_feature_are_errors(self):
        cases = [
            (["--mttr-hours", "2"], "--mtbf-hours"),
            (["--mttr-hours", "2", "--brownout-hours", "5"], "--mtbf-hours"),
            (["--min-dwell", "30"], "--mtbf-hours"),
            (["--brownout-factor", "0.3"], "--brownout-hours"),
            (["--retry-attempts", "3"], "--retry"),
            (["--probe-period", "30"], "--probe-out"),
            (["--trace-categories", "admission"], "--trace-out"),
        ]
        for flag in ("--zones", "--rack-outage-hours", "--rack-outage-minutes",
                     "--zone-brownout-hours", "--zone-brownout-minutes",
                     "--zone-brownout-factor", "--partition-hours",
                     "--partition-minutes"):
            value = "0.5" if flag.endswith("factor") else "2"
            cases.append(([flag, value], "--racks"))
        for args, named in cases:
            with self.subTest(args=args):
                self.assert_usage_error(args, args[0], named)

    def test_explicit_system_flags_override_the_preset(self):
        result = run_cli("--servers", "8", "--bandwidth", "200", "--videos", "400")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("8 servers x 200 Mb/s", result.stdout)
        result = run_cli("--system", "large", "--servers", "10")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("large system, 10 servers x 300 Mb/s", result.stdout)

    def test_fault_flags_take_effect_without_crashes(self):
        base = ["--hours", "5", "--racks", "2", "--partition-hours", "1",
                "--retry", "true"]
        plain = run_cli(*base)
        dwell = run_cli(*base, "--min-dwell", "3600")
        self.assertEqual(plain.returncode, 0, plain.stderr)
        self.assertEqual(dwell.returncode, 0, dwell.stderr)
        self.assertNotEqual(plain.stdout, dwell.stdout,
                            "--min-dwell was ignored next to domain faults")
        # A brownout alone arms the fault layer: shedding, no crashes.
        brownout = run_cli("--hours", "5", "--brownout-hours", "0.5",
                           "--brownout-factor", "0.3")
        self.assertEqual(brownout.returncode, 0, brownout.stderr)
        self.assertRegex(brownout.stdout, r"server down episodes\s*\|\s*0\s")


def run_tournament(*args):
    """vodsim_tournament on a one-cell, short-horizon grid (extra args may
    override it: the last value of a flag wins)."""
    return subprocess.run(
        [find_binary("tools", "vodsim_tournament"), "--catalog", "20",
         "--schedulers", "eftf", "--placements", "even", "--budgets", "0",
         "--hours", "0.05", "--warmup-hours", "0", "--trials", "1", *args],
        capture_output=True, text=True, timeout=60)


class TournamentUsageErrorTest(unittest.TestCase):
    """vodsim_tournament turns bad list items, unknown names and configs
    that fail validation into exit 2 with a message, never a crash (exit
    139), an uncaught exception (exit 134) or an empty table (exit 0)."""

    def setUp(self):
        if find_binary("tools", "vodsim_tournament") is None:
            self.skipTest("vodsim_tournament not built")

    def test_the_base_grid_runs(self):
        result = run_tournament()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("eftf/even/m0", result.stdout)

    def test_bad_input_exits_2_with_a_message(self):
        cases = [
            (["--catalog", "0"], "num_videos"),
            (["--catalog", "abc"], "--catalog"),
            (["--budgets", "x"], "--budgets"),
            (["--servers", "0"], "num_servers"),
            (["--copies", "0.5"], "avg_copies"),
            (["--schedulers", "bogus"], "bogus"),
            (["--trials", "0"], "trials"),
        ]
        for args, named in cases:
            with self.subTest(args=args):
                result = run_tournament(*args)
                self.assertEqual(result.returncode, 2,
                                 f"{args}: {result.returncode} {result.stderr}")
                self.assertIn("vodsim_tournament: ", result.stderr)
                self.assertIn(named, result.stderr)
                self.assertEqual(result.stdout, "")


class ExampleUsageErrorTest(unittest.TestCase):
    """The example programs and the fuzzer turn bad flag values into exit 2
    with a `<tool>: ` message, never an uncaught exception (exit 134) or a
    silent success; an artifact path that cannot be written fails the run
    with exit 1 and `cannot write <path>`."""

    def run_binary(self, subdir, name, *args):
        path = find_binary(subdir, name)
        if path is None:
            self.skipTest(f"{name} not built")
        return subprocess.run([path, *args], capture_output=True, text=True,
                              timeout=120)

    def test_bad_values_exit_2_with_a_message(self):
        cases = [
            ("examples", "quickstart", ["--theta", "7"], "zipf_theta"),
            ("examples", "movie_service", ["--trials", "0"], "trials"),
            ("examples", "clip_server", ["--hours", "-1"], "duration"),
            ("examples", "fault_tolerance_demo", ["--mtbf-hours", "-2"],
             "mean_time_between_failures"),
            ("tools", "vodsim_fuzz", ["--scenarios", "-3"], "--scenarios"),
            ("tools", "vodsim_fuzz", ["--seed", "-1"], "--seed"),
            ("tools", "vodsim_fuzz", ["--chaos", "2"], "--chaos"),
        ]
        for subdir, name, args, named in cases:
            with self.subTest(tool=name, args=args):
                result = self.run_binary(subdir, name, *args)
                self.assertEqual(result.returncode, 2,
                                 f"{args}: {result.returncode} {result.stderr}")
                self.assertIn(f"{name}: ", result.stderr)
                self.assertIn(named, result.stderr)

    def test_unwritable_artifact_paths_exit_1(self):
        with tempfile.TemporaryDirectory() as directory:
            missing = os.path.join(directory, "missing", "out")
            cases = [
                ("quickstart", ["--hours", "0.5", "--trace-out", missing]),
                ("quickstart", ["--hours", "0.5", "--probe-out", missing]),
                ("clip_server", ["--hours", "0.5", "--save-trace", missing]),
                ("vodsim_cli", ["--hours", "0.5", "--warmup-hours", "0",
                                "--csv-out", missing]),
            ]
            for name, args in cases:
                with self.subTest(tool=name, args=args):
                    result = self.run_binary("examples", name, *args)
                    self.assertEqual(
                        result.returncode, 1,
                        f"{args}: {result.returncode} {result.stderr}")
                    self.assertIn(f"cannot write {missing}", result.stderr)
                    self.assertNotIn(f"to {missing}", result.stdout)


class ShardedTraceTest(unittest.TestCase):
    """A sharded run's trace export holds every context's events, not just
    the coordinator's: the same stream lifecycle as a single-queue run."""

    def export(self, directory, name, *extra):
        cli = find_cli()
        path = os.path.join(directory, name)
        result = subprocess.run(
            [cli, "--hours", "1", "--warmup-hours", "0", "--trace-jsonl", path,
             *extra], capture_output=True, text=True, timeout=120)
        self.assertEqual(result.returncode, 0, result.stderr)
        check = run_tool(VALIDATE_TRACE, "--jsonl", path)
        self.assertEqual(check.returncode, 0, check.stderr)
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle][1:]

    def test_sharded_trace_has_shard_drain_events(self):
        if find_cli() is None:
            self.skipTest("vodsim_cli not built")
        with tempfile.TemporaryDirectory() as directory:
            single = self.export(directory, "single.jsonl")
            sharded = self.export(directory, "sharded.jsonl",
                                  "--shards", "4", "--shard-threads", "2")

        def count(events, kind):
            return sum(1 for event in events if event["type"] == kind)

        self.assertGreater(count(single, "tx_complete"), 0)
        self.assertEqual(count(single, "tx_complete"),
                         count(sharded, "tx_complete"))
        self.assertEqual({event["shard"] for event in single}, {-1})
        self.assertTrue(any(event["shard"] >= 0 for event in sharded))


class DocCitationTest(unittest.TestCase):
    """Every bench record, EXPERIMENTS.md section, env var and vodsim_cli
    flag the docs name must exist."""

    CITING = ("README.md", "DESIGN.md",
              os.path.join(".github", "workflows", "ci.yml"))

    def read(self, name):
        with open(os.path.join(REPO_DIR, name), encoding="utf-8") as handle:
            return handle.read()

    def test_bench_records_and_experiment_sections_resolve(self):
        sections = set(re.findall(r"^## (M\d+)\b", self.read("EXPERIMENTS.md"),
                                  re.MULTILINE))
        checked = 0
        for name in self.CITING:
            text = self.read(name)
            # BENCH_<name>.json, or the bare BENCH_prN shorthand in prose.
            for record in re.findall(r"\b(BENCH_\w+)\.json|\b(BENCH_pr\d+)\b",
                                     text):
                path = os.path.join(REPO_DIR, "bench",
                                    (record[0] or record[1]) + ".json")
                self.assertTrue(os.path.exists(path),
                                f"{name} cites missing {os.path.basename(path)}")
                checked += 1
            for section in re.findall(r"EXPERIMENTS\.md (M\d+)\b", text):
                self.assertIn(section, sections,
                              f"{name} cites missing EXPERIMENTS.md {section}")
                checked += 1
        self.assertGreater(checked, 0)

    def test_cli_flags_in_docs_exist(self):
        """Every --flag on a vodsim_cli command line in the docs, CI and the
        headline script is one `vodsim_cli --help` lists."""
        cli = find_cli()
        if cli is None:
            self.skipTest("vodsim_cli not built")
        usage = subprocess.run([cli, "--help"], capture_output=True,
                               text=True, timeout=60).stdout
        known = set(re.findall(r"^  --([a-z0-9-]+)", usage, re.MULTILINE))
        cited = 0
        for name in ("README.md", os.path.join(".github", "workflows", "ci.yml"),
                     os.path.join("bench", "pr8", "run_headline.sh")):
            # A command starts at vodsim_cli (or the script's "$CLI") and
            # runs on through backslash-continued lines.
            command = None
            for line in self.read(name).splitlines():
                start = re.search(r'vodsim_cli\b|"\$CLI"', line)
                if start:
                    command = line[start.end():]
                elif command is not None:
                    command = line
                if command is None:
                    continue
                for flag in re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", command):
                    self.assertIn(flag, known, f"{name} cites unknown --{flag}")
                    cited += 1
                if not line.rstrip().endswith("\\"):
                    command = None
        self.assertGreater(cited, 30)

    def test_env_vars_named_in_docs_exist_in_code(self):
        """A VODSIM_* variable the docs name must still appear in some
        source, tool, example, test (this file excluded) or CMakeLists.txt,
        so deleted switches cannot linger in the prose."""
        env_var = re.compile(r"\bVODSIM_[A-Z0-9_]+\b")
        paths = []
        for top in ("src", "tools", "examples", "tests"):
            for root, _, files in os.walk(os.path.join(REPO_DIR, top)):
                paths += [os.path.join(root, name) for name in files
                          if name != "tools_test.py"]
        for root, dirs, files in os.walk(REPO_DIR):
            # Skip hidden directories and build trees (they hold a cache).
            dirs[:] = [d for d in dirs if not d.startswith(".") and
                       not os.path.exists(os.path.join(root, d,
                                                       "CMakeCache.txt"))]
            if "CMakeLists.txt" in files:
                paths.append(os.path.join(root, "CMakeLists.txt"))
        in_code = set()
        for path in paths:
            with open(path, encoding="utf-8", errors="replace") as handle:
                in_code.update(env_var.findall(handle.read()))
        named = set()
        for name in self.CITING:
            for var in env_var.findall(self.read(name)):
                named.add(var)
                self.assertIn(var, in_code,
                              f"{name} names {var}, which no code contains")
        self.assertGreater(len(named), 0)


if __name__ == "__main__":
    unittest.main()
