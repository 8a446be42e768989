#!/bin/sh
# PR8 headline: 100 servers x 15000 Mb/s, 1.5 Mb/s views => 1M concurrent
# streams at full load; 1200 s simulated, intermittent + buffer-aware.
# One run per (shards, threads) point; wall seconds printed. Expects the
# project built into <repo>/build.
#
# Hardened after the first capture attempt truncated: output now streams
# through tee into $HEADLINE_LOG line by line (a killed run keeps every
# completed line instead of losing the pipe buffer), the binary is
# overridable (VODSIM_CLI=/path/to/old/vodsim_cli re-measures a snapshot
# binary for cross-PR comparisons), and the point list and simulated hours
# are env knobs — near the 1M-stream mark each full-duration point costs
# on the order of hours of wall time on a single-core host, which is what
# killed the original attempt mid-baseline.
set -e
SCRIPT_DIR=$(cd "$(dirname "$0")" && pwd)
cd "$SCRIPT_DIR/../../build"

CLI="${VODSIM_CLI:-./examples/vodsim_cli}"
LOG="${HEADLINE_LOG:-$SCRIPT_DIR/headline.log}"
HOURS="${HEADLINE_HOURS:-0.3333}"
POINTS="${HEADLINE_POINTS:-baseline sharded-t1 sharded-t2 sharded-t4}"

: > "$LOG"
note() { echo "$@" | tee -a "$LOG"; }
note "binary=$CLI hours=$HOURS points=[$POINTS]"

run() {
  label="$1"; shards="$2"; threads="$3"
  case " $POINTS " in *" $label "*) ;; *) return 0 ;; esac
  note "=== $label (shards=$shards threads=$threads) ==="
  start=$(date +%s)
  "$CLI" \
    --system custom --servers 100 --bandwidth 15000 \
    --view-bw 1.5 --receive-bw 4.5 --staging 0.25 \
    --scheduler intermittent --buffer-aware true \
    --load 1.0 --hours "$HOURS" --warmup-hours 0 --seed 42 \
    --shards "$shards" --shard-threads "$threads" 2>&1 | tee -a "$LOG"
  end=$(date +%s)
  note "WALL_SECONDS $label $((end - start))"
  note "=== end $label ==="
}
run baseline 1 1
run sharded-t1 100 1
run sharded-t2 100 2
run sharded-t4 100 4
note ALL_RUNS_DONE
