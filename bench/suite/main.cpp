/// \file main.cpp
/// \brief vodsim_suite: the benchmark binary behind bench/suite/run.py.
///
/// One process runs one (workload, rep) and prints one JSON line:
///
///   vodsim_suite --mode rep --workload W --seed S [--threads N]
///                [--scale F] [--traced --trace-capacity N] [--replay]
///                [--spans PATH]
///   vodsim_suite --mode self-check --workload W [--scale F]
///   vodsim_suite --mode chase   # pointer-chase host calibration
///   vodsim_suite --mode info    # compiler and build type
///
/// A rep records W's request trace from S, then constructs and runs each
/// cell on it. --traced attaches the trace recorder; --replay times layer
/// calls on the last cell's end state. self-check runs the cells once on
/// the trace the world seed generates and once generating their own
/// arrivals, and reports whether the two are bit-identical.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "record.h"
#include "replay.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/rng.h"
#include "workloads.h"

namespace suite {
namespace {

using namespace vodsim;

/// Constructions timed per cell; setup_s takes their median.
constexpr int kSetupRepeats = 5;

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return ratio(static_cast<double>(numerator), static_cast<double>(denominator));
}

/// FNV-1a, printed as 16 hex digits.
std::string hash_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Every simulated outcome of one cell: the fluid sums as hexfloats and
/// every count. Equal digests mean bit-identical results.
std::string cell_digest(const VodSimulation& sim, const Metrics& m) {
  std::string digest;
  for (double value : {m.transmitted(), m.glitch_seconds(), m.underflow_megabits(),
                       m.replication_megabits()}) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%a ", value);
    digest += buffer;
  }
  for (std::uint64_t count :
       {m.arrivals(), m.accepts(), m.accepts_via_migration(), m.rejects(),
        m.migration_steps(), m.completions(), m.drops(), m.underflow_events(),
        m.replications(), m.server_downs(), m.sheds(), m.interruptions(),
        m.retry_enqueued(), m.readmissions(), m.repairs(), m.partitions(),
        sim.coordinator_events(), sim.shard_events()}) {
    digest += std::to_string(count) + " ";
  }
  return digest + ";";
}

/// Counts read off the trace recorder(s) of the traced cells.
struct TraceTally {
  std::uint64_t dropped = 0;
  std::uint64_t recomputes = 0;
  double stream_advances = 0.0;
  std::uint64_t urgency_flips = 0;
  std::uint64_t searches = 0;
  double search_nodes = 0.0;
  std::uint64_t plans_found = 0;
  std::uint64_t buffer_wakeups = 0;

  void add(const VodSimulation& sim) {
    // Each recorder numbers its events gap-free from 0, so the first
    // retained seq of a shard's recorder is the count it overwrote.
    std::map<std::int32_t, std::uint64_t> first_seq;
    for (const TraceEvent& event : sim.merged_trace_events()) {
      if (event.shard >= 0) {
        const auto [it, inserted] = first_seq.try_emplace(event.shard, event.seq);
        if (!inserted) it->second = std::min(it->second, event.seq);
      }
      switch (event.type) {
        case TraceEventType::kRecompute:
          ++recomputes;
          stream_advances += event.a;
          break;
        case TraceEventType::kUrgentOn:
        case TraceEventType::kUrgentOff:
          ++urgency_flips;
          break;
        case TraceEventType::kMigrationSearch:
          ++searches;
          search_nodes += event.a;
          plans_found += event.b >= 0.0;
          break;
        case TraceEventType::kBufferFull:
        case TraceEventType::kBufferLow:
          ++buffer_wakeups;
          break;
        default:
          break;
      }
    }
    dropped += sim.trace()->dropped();
    for (const auto& [shard, seq] : first_seq) dropped += seq;
  }
};

/// Sums over the cells of one workload run.
struct CellsResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double utilization = 0.0;  ///< mean over cells
  double glitch_s = 0.0;
  double replication_mb = 0.0;
  double streams_per_server = 0.0;  ///< mean over cells
  double imbalance = 0.0;           ///< mean over cells
  std::uint64_t arrivals = 0, accepts = 0, rejects = 0, via_migration = 0,
                migration_steps = 0, drops = 0, server_downs = 0, sheds = 0,
                retry_enqueued = 0, readmissions = 0, repairs = 0,
                partitions = 0, replications = 0, coordinator_events = 0,
                shard_events = 0, continuity_violations = 0,
                bound_violations = 0;
  std::size_t pending_end = 0;  ///< largest over cells
  std::string digest;
  TraceTally tally;
  /// The last cell, kept alive for the replays.
  std::unique_ptr<VodSimulation> last;

  void add(const VodSimulation& sim, const Metrics& m, double cells) {
    digest += cell_digest(sim, m);
    utilization += m.utilization() / cells;
    glitch_s += m.glitch_seconds();
    replication_mb += m.replication_megabits();
    arrivals += m.arrivals();
    accepts += m.accepts();
    rejects += m.rejects();
    via_migration += m.accepts_via_migration();
    migration_steps += m.migration_steps();
    drops += m.drops();
    server_downs += m.server_downs();
    sheds += m.sheds();
    retry_enqueued += m.retry_enqueued();
    readmissions += m.readmissions();
    repairs += m.repairs();
    partitions += m.partitions();
    replications += m.replications();
    coordinator_events += sim.coordinator_events();
    shard_events += sim.shard_events();
    continuity_violations += sim.continuity_violations();
    if (m.has_bounds() && m.utilization() > sim.bounds().utilization_upper + 0.01) {
      ++bound_violations;
    }
    pending_end = std::max(pending_end, sim.simulator().pending_count());
    const VodSimulation::OccupancySummary occupancy = sim.occupancy();
    streams_per_server += occupancy.mean_active / cells;
    imbalance += occupancy.imbalance / cells;
  }
};

/// Constructs and runs every cell of \p workload in turn, on \p trace, or
/// on self-generated arrivals when \p trace is null. A positive
/// \p trace_capacity attaches the recorder (all categories but allocation).
CellsResult run_cells(const Workload& workload, const RequestTrace* trace,
                      std::size_t trace_capacity, SpanLog& spans) {
  CellsResult result;
  const double cells = static_cast<double>(workload.cells.size());
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    SimulationConfig config = workload.cells[i];
    const bool traced = trace_capacity > 0;
    if (traced) {
      config.trace.enabled = true;
      config.trace.categories = kTraceAllCategories & ~kTraceAllocation;
      config.trace.capacity = trace_capacity;
    }
    const std::string cell = "cell" + std::to_string(i);
    std::vector<double> setups;
    for (int k = 0; k < (traced ? 1 : kSetupRepeats); ++k) {
      result.last.reset();
      const Clock::time_point start = Clock::now();
      result.last = trace != nullptr ? std::make_unique<VodSimulation>(config, *trace)
                                     : std::make_unique<VodSimulation>(config);
      setups.push_back(spans.close("setup." + cell, "rep", start));
    }
    result.setup_s += median(setups);

    const Clock::time_point start = Clock::now();
    const Metrics& m = result.last->run();
    result.run_s += spans.close("run." + cell, "rep", start);
    result.add(*result.last, m, cells);
    if (traced) result.tally.add(*result.last);
  }
  return result;
}

void add_results(const CellsResult& r, JsonLine& out) {
  out.add("digest", hash_hex(r.digest));
  out.add("run_s", r.run_s);
  out.add("setup_s", r.setup_s);
  out.add("utilization", r.utilization);
  out.add("served_ratio", 1.0 - ratio(r.rejects + r.drops, r.arrivals));
  const std::uint64_t events = r.coordinator_events + r.shard_events;
  out.add("des.events", events);
  out.add("des.events_per_s", static_cast<double>(events) / r.run_s);
  out.add("des.pending_end", static_cast<std::uint64_t>(r.pending_end));
  out.add("engine.coordinator_events", r.coordinator_events);
  out.add("engine.shard_events", r.shard_events);
  out.add("engine.serial_event_frac", ratio(r.coordinator_events, events));
  out.add("admission.arrivals", r.arrivals);
  out.add("admission.rejects", r.rejects);
  out.add("admission.via_migration", r.via_migration);
  out.add("admission.migration_steps", r.migration_steps);
  out.add("admission.unserved_ratio", ratio(r.rejects + r.drops, r.arrivals));
  out.add("cluster.streams_per_server", r.streams_per_server);
  out.add("cluster.imbalance", r.imbalance);
  out.add("fault.server_downs", r.server_downs);
  out.add("fault.sheds", r.sheds);
  out.add("fault.drops", r.drops);
  out.add("fault.retry_enqueued", r.retry_enqueued);
  out.add("fault.readmit_ratio", ratio(r.readmissions, r.retry_enqueued));
  out.add("fault.repairs", r.repairs);
  out.add("fault.partitions", r.partitions);
  out.add("replication.transfers", r.replications);
  out.add("replication.mb", r.replication_mb);
  out.add("viewer.glitch_s_per_accept",
          ratio(r.glitch_s, static_cast<double>(r.accepts)));
  out.add("check.continuity_violations", r.continuity_violations);
  out.add("check.bound_violations", r.bound_violations);
}

void add_tally(const TraceTally& t, JsonLine& out) {
  out.add("check.trace_dropped", t.dropped);
  out.add("sched.recomputes", t.recomputes);
  out.add("sched.streams_per_recompute",
          ratio(t.stream_advances, static_cast<double>(t.recomputes)));
  out.add("sched.urgency_flips", t.urgency_flips);
  out.add("admission.searches", t.searches);
  out.add("admission.search_nodes", t.search_nodes);
  out.add("admission.search_hit_ratio", ratio(t.plans_found, t.searches));
  out.add("cluster.stream_advances", t.stream_advances);
  out.add("cluster.buffer_wakeups", t.buffer_wakeups);
}

int run_rep(const CliParser& cli) {
  const Workload workload =
      make_workload(cli.get_string("workload"), cli.get_double("scale"),
                    static_cast<int>(cli.get_long("threads")));
  SpanLog spans;
  const Clock::time_point rep_start = Clock::now();
  const Clock::time_point start = Clock::now();
  const RequestTrace trace = make_trace(
      workload.cells.front(), static_cast<std::uint64_t>(cli.get_long("seed")));
  const double generate_s = spans.close("workload.generate", "rep", start);

  const std::size_t capacity =
      cli.get_bool("traced") ? static_cast<std::size_t>(cli.get_long("trace-capacity"))
                             : 0;
  const CellsResult result = run_cells(workload, &trace, capacity, spans);

  JsonLine out;
  out.add("workload", workload.name);
  out.add("workload.generate_s", generate_s);
  out.add("check.expect_continuity",
          static_cast<std::uint64_t>(workload.expect_continuity));
  add_results(result, out);
  if (capacity > 0) add_tally(result.tally, out);
  if (cli.get_bool("replay")) {
    run_replays(ReplayInputs{workload, *result.last, trace, result.pending_end,
                             result.streams_per_server},
                spans, out);
  }
  spans.close("rep", "", rep_start);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6);

  const std::string spans_path = cli.get_string("spans");
  if (!spans_path.empty() && !spans.write(spans_path)) {
    std::fprintf(stderr, "vodsim_suite: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int run_self_check(const CliParser& cli) {
  const Workload workload =
      make_workload(cli.get_string("workload"), cli.get_double("scale"),
                    static_cast<int>(cli.get_long("threads")));
  SpanLog spans;
  const RequestTrace trace = make_trace(workload.cells.front(), kWorldSeed);
  const CellsResult fed = run_cells(workload, &trace, 0, spans);
  const CellsResult generated = run_cells(workload, nullptr, 0, spans);
  JsonLine out;
  out.add("workload", workload.name);
  out.add("digest", hash_hex(fed.digest));
  out.add("check.self_generate_equal",
          static_cast<std::uint64_t>(fed.digest == generated.digest));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Dependent loads around a random 16 MiB cycle of cache lines: a fixed
/// memory-latency yardstick, so a set run while co-tenants contend for
/// memory shows it in its record. `end` keeps the loop from being elided.
int run_chase() {
  struct alignas(64) Line {
    std::uint32_t next = 0;
  };
  constexpr std::uint32_t kLines = (16u << 20) / sizeof(Line);
  constexpr std::uint32_t kSteps = 1u << 18;
  std::vector<Line> lines(kLines);
  std::vector<std::uint32_t> cycle(kLines);
  std::iota(cycle.begin(), cycle.end(), 0u);
  Rng rng(3);
  for (std::uint32_t i = kLines - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(cycle[i], cycle[rng.uniform_int(i)]);
  }
  for (std::uint32_t i = 0; i < kLines; ++i) lines[i].next = cycle[i];

  std::uint32_t at = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t i = 0; i < kSteps; ++i) at = lines[at].next;
  const double seconds = seconds_between(start, Clock::now());
  JsonLine out;
  out.add("host.chase_ns", 1e9 * seconds / kSteps);
  out.add("end", static_cast<std::uint64_t>(at));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int run_info() {
  JsonLine out;
  out.add("compiler", std::string(SUITE_COMPILER));
  out.add("build_type", std::string(SUITE_BUILD_TYPE));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace suite

int main(int argc, char** argv) {
  vodsim::CliParser cli("vodsim_suite", "benchmark binary: one (workload, rep)");
  cli.add_flag("mode", "rep", "rep | self-check | chase | info");
  cli.add_flag("workload", "fig6_matrix",
               "fig6_matrix | skewed_drm | sharded_ramp | rack_storm");
  cli.add_flag("seed", "1", "request-trace seed");
  cli.add_flag("scale", "1", "simulated-horizon multiplier");
  cli.add_flag("threads", "1",
               "drain workers of the sharded workload (the calling thread "
               "drains too)");
  cli.add_bool_flag("traced", "attach the trace recorder");
  cli.add_flag("trace-capacity", "1048576", "trace ring size, events");
  cli.add_bool_flag("replay", "time layer calls on the last cell's end state");
  cli.add_flag("spans", "", "write Chrome-trace spans here");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  try {
    const std::string mode = cli.get_string("mode");
    if (mode == "rep") return suite::run_rep(cli);
    if (mode == "self-check") return suite::run_self_check(cli);
    if (mode == "chase") return suite::run_chase();
    if (mode == "info") return suite::run_info();
    std::fprintf(stderr, "vodsim_suite: unknown mode %s\n", mode.c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vodsim_suite: %s\n", error.what());
  }
  return 2;
}
