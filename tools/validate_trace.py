#!/usr/bin/env python3
"""Schema-validate vodsim observability artifacts.

Usage:
    validate_trace.py [--chrome trace.json] [--jsonl trace.jsonl]
                      [--probes probes.csv]

Checks (stdlib only, so CI needs nothing beyond python3):
  * Chrome trace: valid JSON object with a `traceEvents` list; every event
    has `ph`/`name`/`ts`; async begin ("b") and end ("e") events pair up per
    (cat, id); counter ("C") events carry numeric args.
  * JSONL trace: first line declares schema vodsim-trace-v1 and an event
    count matching the remaining lines; events carry the full key set, a
    known `type` and non-decreasing `t`, and `seq` increases strictly per
    `shard` tag (each execution context numbers its own events; -1 is the
    coordinator).
  * Probe CSV: exact expected header, every field parses as a float (the
    exporter normalizes non-finite values to inf/-inf/nan, which float()
    accepts), and timestamps are non-decreasing.

Exits non-zero with a message on the first violation.
"""

import argparse
import csv
import json
import sys

PROBE_HEADER = [
    "time",
    "server",
    "committed_mbps",
    "reserved_mbps",
    "active_streams",
    "mean_buffer_fill",
    "pending_events",
    "capacity_factor",
    "retry_queue",
    "reachable",
]

JSONL_EVENT_KEYS = {"seq", "t", "type", "cat", "server", "request", "video", "a", "b",
                    "shard"}

# Every event name the recorder can emit (obs/trace.cpp's to_string table).
# An unknown `type` means the exporter and this validator have diverged.
KNOWN_EVENT_TYPES = {
    "arrival", "admit", "reject",
    "migrate_begin", "migrate_end", "migration_search",
    "recompute", "urgent_on", "urgent_off",
    "allocation_change",
    "server_down", "server_up", "stream_dropped", "stream_recovered",
    "brownout_begin", "brownout_end", "stream_shed",
    "retry_enqueued", "retry_readmit", "retry_abandoned", "repair_planned",
    "partition_begin", "partition_end",
    "replication_begin", "replication_end",
    "buffer_full", "buffer_low", "underflow",
    "tx_complete", "playback_end", "pause", "resume",
}


def fail(message):
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate_chrome(path):
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: expected an object with a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty list")
    open_spans = {}
    counters = 0
    for index, event in enumerate(events):
        for key in ("ph", "name"):
            if key not in event:
                fail(f"{path}: event {index} missing '{key}'")
        ph = event["ph"]
        if ph != "M" and "ts" not in event:
            fail(f"{path}: event {index} ({ph}) missing 'ts'")
        if ph in ("b", "e"):
            span_key = (event.get("cat"), event.get("id"))
            if ph == "b":
                open_spans[span_key] = open_spans.get(span_key, 0) + 1
            else:
                if open_spans.get(span_key, 0) <= 0:
                    fail(f"{path}: event {index} ends span {span_key} "
                         "that was never begun")
                open_spans[span_key] -= 1
        elif ph == "C":
            counters += 1
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                fail(f"{path}: counter event {index} has no args")
            for name, value in args.items():
                if value is not None and not isinstance(value, (int, float)):
                    fail(f"{path}: counter event {index} arg '{name}' "
                         "is not numeric")
    dangling = {key: n for key, n in open_spans.items() if n != 0}
    if dangling:
        fail(f"{path}: unbalanced async spans: {dangling}")
    print(f"validate_trace: {path}: {len(events)} events ok "
          f"({counters} counter samples)")


def validate_jsonl(path):
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        fail(f"{path}: empty file")
    header = json.loads(lines[0])
    if header.get("schema") != "vodsim-trace-v1":
        fail(f"{path}: first line must declare schema vodsim-trace-v1, "
             f"got {header.get('schema')!r}")
    declared = header.get("events")
    if declared != len(lines) - 1:
        fail(f"{path}: header declares {declared} events, "
             f"file has {len(lines) - 1}")
    last_t = float("-inf")
    last_seq = {}  # shard tag -> last seq seen
    for number, line in enumerate(lines[1:], start=2):
        event = json.loads(line)
        missing = JSONL_EVENT_KEYS - event.keys()
        if missing:
            fail(f"{path}:{number}: missing keys {sorted(missing)}")
        if event["type"] not in KNOWN_EVENT_TYPES:
            fail(f"{path}:{number}: unknown event type {event['type']!r}")
        if event["t"] < last_t:
            fail(f"{path}:{number}: time went backwards "
                 f"({event['t']} < {last_t})")
        shard = event["shard"]
        if event["seq"] <= last_seq.get(shard, -1):
            fail(f"{path}:{number}: seq not strictly increasing "
                 f"for shard {shard}")
        last_t = event["t"]
        last_seq[shard] = event["seq"]
    print(f"validate_trace: {path}: {len(lines) - 1} events ok")


def validate_probes(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            fail(f"{path}: empty file")
        if header != PROBE_HEADER:
            fail(f"{path}: header {header} != {PROBE_HEADER}")
        rows = 0
        last_time = float("-inf")
        for number, row in enumerate(reader, start=2):
            if len(row) != len(PROBE_HEADER):
                fail(f"{path}:{number}: expected {len(PROBE_HEADER)} fields, "
                     f"got {len(row)}")
            try:
                values = [float(field) for field in row]
            except ValueError as error:
                fail(f"{path}:{number}: non-numeric field: {error}")
            if values[0] < last_time:
                fail(f"{path}:{number}: time went backwards")
            last_time = values[0]
            rows += 1
    if rows == 0:
        fail(f"{path}: no probe rows")
    print(f"validate_trace: {path}: {rows} probe rows ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chrome", help="Chrome tracing JSON file")
    parser.add_argument("--jsonl", help="vodsim-trace-v1 JSONL file")
    parser.add_argument("--probes", help="probe time series CSV file")
    args = parser.parse_args()
    if not (args.chrome or args.jsonl or args.probes):
        parser.error("nothing to validate; pass --chrome/--jsonl/--probes")
    if args.chrome:
        validate_chrome(args.chrome)
    if args.jsonl:
        validate_jsonl(args.jsonl)
    if args.probes:
        validate_probes(args.probes)
    print("validate_trace: all artifacts ok")


if __name__ == "__main__":
    main()
