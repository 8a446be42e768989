#pragma once

/// \file exporters.h
/// \brief Post-run serialization of traces and probe series.
///
/// Three formats, each aimed at a different consumer:
///   - Chrome trace JSON (`chrome://tracing` / Perfetto): migrations and
///     replication transfers as async begin/end spans, everything else as
///     instant events on per-server tracks, probe series as counter tracks.
///   - JSONL: one self-describing JSON object per line, schema
///     `vodsim-trace-v1` (first line is a metadata record) — the format the
///     golden-trace tests and tools/validate_trace.py check.
///   - CSV: the probe time series in long format (one row per server per
///     grid instant, aggregate rows with server = -1), pandas-friendly.
///
/// Exporters take an event list plus the ring totals of the recorders it
/// came from, so a sharded run exports every context's events together;
/// they can be called at any time (normally after run()).

#include <ostream>
#include <vector>

#include "vodsim/obs/probes.h"
#include "vodsim/obs/trace.h"

namespace vodsim {

/// Writes the Chrome tracing "JSON object format" for \p events (normally
/// VodSimulation::merged_trace_events, with \p totals from trace_totals).
/// \p probes may be null; \p num_servers names the per-server threads up
/// front (pass 0 to skip thread metadata).
void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events,
                        const TraceTotals& totals, const ProbeSet* probes,
                        std::size_t num_servers);

/// Writes schema `vodsim-trace-v1` JSONL: a metadata first line, then one
/// event object per line with keys seq,t,type,cat,server,request,video,a,b,
/// shard. `seq` increases strictly per `shard` tag (-1 = coordinator).
void write_trace_jsonl(std::ostream& out, const std::vector<TraceEvent>& events,
                       const TraceTotals& totals);

/// Writes the probe series as CSV with a fixed header:
/// time,server,committed_mbps,reserved_mbps,active_streams,mean_buffer_fill,
/// pending_events.
void write_probe_csv(std::ostream& out, const ProbeSet& probes);

}  // namespace vodsim
