#include "vodsim/obs/exporters.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "vodsim/util/csv.h"

namespace vodsim {

namespace {

/// JSON number with round-trip precision; non-finite values (which JSON
/// cannot represent) degrade to null.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Simulation seconds -> Chrome trace microseconds.
std::string chrome_ts(Seconds t) { return json_number(t * 1e6); }

/// Track (tid) an event renders on: its server's track, or the cluster-wide
/// track (one past the last server) when no server applies.
long chrome_tid(const TraceEvent& event, std::size_t num_servers) {
  return event.server == kNoServer ? static_cast<long>(num_servers)
                                   : static_cast<long>(event.server);
}

void write_event_args(std::ostream& out, const TraceEvent& event) {
  out << "{\"request\":" << event.request << ",\"video\":" << event.video
      << ",\"a\":" << json_number(event.a) << ",\"b\":" << json_number(event.b)
      << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events,
                        const TraceTotals& totals, const ProbeSet* probes,
                        std::size_t num_servers) {
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"schema\":\"vodsim-chrome-trace-v1\",\"emitted\":" << totals.emitted
      << ",\"dropped\":" << totals.dropped << "},\"traceEvents\":[\n";

  bool first = true;
  auto sep = [&]() -> std::ostream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };

  // Metadata: name the process and one track per server plus the cluster
  // track so chrome://tracing shows meaningful labels.
  sep() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"vodsim cluster\"}}";
  for (std::size_t s = 0; s < num_servers; ++s) {
    sep() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << s
          << ",\"args\":{\"name\":\"server " << s << "\"}}";
  }
  sep() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << num_servers << ",\"args\":{\"name\":\"cluster\"}}";

  // Async spans must balance per (cat, id): a begin may be missing (fault
  // recovery and retry re-admission re-home streams without a preceding
  // migrate_begin; ring truncation can drop one), and an end may never come
  // (a switch in flight at the horizon). Track open spans — an unmatched
  // end degrades to an instant, and dangling begins are closed at the tail.
  std::map<std::pair<bool, RequestId>, int> open_spans;
  Seconds last_time = 0.0;

  for (const TraceEvent& event : events) {
    const char* name = to_string(event.type);
    const char* cat = to_string(trace_event_category(event.type));
    if (event.time > last_time) last_time = event.time;
    switch (event.type) {
      case TraceEventType::kMigrateBegin:
      case TraceEventType::kReplicationBegin: {
        const bool migration = event.type == TraceEventType::kMigrateBegin;
        const RequestId id =
            migration ? event.request : static_cast<RequestId>(event.video);
        ++open_spans[{migration, id}];
        sep() << "{\"name\":\"" << (migration ? "migration" : "replication")
              << "\",\"cat\":\"" << cat << "\",\"ph\":\"b\",\"id\":" << id
              << ",\"ts\":" << chrome_ts(event.time)
              << ",\"pid\":0,\"tid\":" << chrome_tid(event, num_servers)
              << ",\"args\":";
        write_event_args(out, event);
        out << "}";
        break;
      }
      case TraceEventType::kMigrateEnd:
      case TraceEventType::kReplicationEnd: {
        const bool migration = event.type == TraceEventType::kMigrateEnd;
        const RequestId id =
            migration ? event.request : static_cast<RequestId>(event.video);
        int& open = open_spans[{migration, id}];
        if (open <= 0) {
          // No begin on record: render as an instant under the event's own
          // name instead of unbalancing the track.
          sep() << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
                << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << chrome_ts(event.time)
                << ",\"pid\":0,\"tid\":" << chrome_tid(event, num_servers)
                << ",\"args\":";
          write_event_args(out, event);
          out << "}";
          break;
        }
        --open;
        sep() << "{\"name\":\"" << (migration ? "migration" : "replication")
              << "\",\"cat\":\"" << cat << "\",\"ph\":\"e\",\"id\":" << id
              << ",\"ts\":" << chrome_ts(event.time)
              << ",\"pid\":0,\"tid\":" << chrome_tid(event, num_servers)
              << ",\"args\":";
        write_event_args(out, event);
        out << "}";
        break;
      }
      default: {
        sep() << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
              << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << chrome_ts(event.time)
              << ",\"pid\":0,\"tid\":" << chrome_tid(event, num_servers)
              << ",\"args\":";
        write_event_args(out, event);
        out << "}";
        break;
      }
    }
  }

  // Close spans still open (e.g. a migration switch cut off by the horizon)
  // so every (cat, id) pair balances.
  for (const auto& [key, open] : open_spans) {
    const auto& [migration, id] = key;
    for (int k = 0; k < open; ++k) {
      sep() << "{\"name\":\"" << (migration ? "migration" : "replication")
            << "\",\"cat\":\"" << (migration ? "migration" : "replication")
            << "\",\"ph\":\"e\",\"id\":" << id
            << ",\"ts\":" << chrome_ts(last_time) << ",\"pid\":0,\"tid\":"
            << num_servers << ",\"args\":{\"request\":" << id
            << ",\"video\":-1,\"a\":0,\"b\":0}}";
    }
  }

  if (probes != nullptr) {
    for (const ProbeRow& row : probes->rows()) {
      const bool aggregate = row.server == kNoServer;
      sep() << "{\"name\":\""
            << (aggregate ? std::string("cluster")
                          : "server " + std::to_string(row.server))
            << "\",\"cat\":\"probe\",\"ph\":\"C\",\"ts\":" << chrome_ts(row.time)
            << ",\"pid\":0,\"tid\":0,\"args\":{\"committed_mbps\":"
            << json_number(row.committed_mbps) << ",\"active_streams\":"
            << json_number(row.active_streams);
      if (aggregate) {
        out << ",\"pending_events\":" << json_number(row.pending_events);
      }
      out << "}}";
    }
  }

  out << "\n]}\n";
}

void write_trace_jsonl(std::ostream& out, const std::vector<TraceEvent>& events,
                       const TraceTotals& totals) {
  out << "{\"schema\":\"vodsim-trace-v1\",\"events\":" << events.size()
      << ",\"emitted\":" << totals.emitted << ",\"dropped\":" << totals.dropped
      << ",\"categories\":" << totals.categories << "}\n";
  for (const TraceEvent& event : events) {
    out << "{\"seq\":" << event.seq << ",\"t\":" << json_number(event.time)
        << ",\"type\":\"" << to_string(event.type) << "\",\"cat\":\""
        << to_string(trace_event_category(event.type)) << "\",\"server\":"
        << event.server << ",\"request\":" << event.request << ",\"video\":"
        << event.video << ",\"a\":" << json_number(event.a) << ",\"b\":"
        << json_number(event.b) << ",\"shard\":" << event.shard << "}\n";
  }
}

void write_probe_csv(std::ostream& out, const ProbeSet& probes) {
  CsvWriter writer(out);
  writer.write_row({"time", "server", "committed_mbps", "reserved_mbps",
                    "active_streams", "mean_buffer_fill", "pending_events",
                    "capacity_factor", "retry_queue", "reachable"});
  for (const ProbeRow& row : probes.rows()) {
    writer.write_row({CsvWriter::field(row.time),
                      CsvWriter::field(static_cast<std::int64_t>(row.server)),
                      CsvWriter::field(row.committed_mbps),
                      CsvWriter::field(row.reserved_mbps),
                      CsvWriter::field(row.active_streams),
                      CsvWriter::field(row.mean_buffer_fill),
                      CsvWriter::field(row.pending_events),
                      CsvWriter::field(row.capacity_factor),
                      CsvWriter::field(row.retry_queue),
                      CsvWriter::field(row.reachable)});
  }
}

}  // namespace vodsim
