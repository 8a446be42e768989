/// \file clip_server.cpp
/// \brief A short-clip service (the paper's small system) under shifting
/// demand, exercising traces for paired what-if analysis.
///
/// Scenario: an intranet clip server (training videos, news clips) where
/// what is popular changes every few hours. The example records ONE arrival
/// trace and replays it under four configurations, so differences are
/// attributable to policy alone — the workflow a capacity engineer would
/// use with production logs. It also demonstrates saving/loading traces.
///
/// Usage:
///   clip_server [--hours 40] [--theta 0.0] [--drift-hours 4]
///               [--save-trace /tmp/clips.csv]

#include <fstream>
#include <iostream>
#include <stdexcept>

#include "vodsim/engine/vod_simulation.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/table.h"
#include "vodsim/workload/trace.h"

int main(int argc, char** argv) try {
  using namespace vodsim;
  CliParser cli("clip_server", "short-clip service under demand drift");
  cli.add_flag("hours", "40", "simulated hours");
  cli.add_flag("theta", "0.0", "Zipf skew of clip popularity");
  cli.add_flag("drift-hours", "4", "how often the popular head rotates");
  cli.add_flag("save-trace", "", "optional path to save the arrival trace CSV");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  SimulationConfig base;
  base.system = SystemConfig::small_system();
  base.zipf_theta = cli.get_double("theta");
  base.duration = hours(cli.get_double("hours"));
  base.warmup = base.duration / 10.0;
  base.client.receive_bandwidth = 30.0;
  base.drift.enabled = true;
  base.drift.period = hours(cli.get_double("drift-hours"));
  base.drift.step = base.system.num_videos / 10;

  // Record one drifting arrival stream; every configuration replays it.
  DriftingZipfPopularity popularity(base.system.num_videos, base.zipf_theta,
                                    base.drift.period, base.drift.step);
  RequestGenerator generator(PoissonProcess(base.arrival_rate()), popularity,
                             /*seed=*/2024);
  const RequestTrace trace = RequestTrace::record_until(generator, base.duration);
  std::cout << "recorded " << trace.size() << " arrivals over "
            << cli.get_double("hours") << " h (drift every "
            << cli.get_double("drift-hours") << " h)\n";

  const std::string trace_path = cli.get_string("save-trace");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    trace.save(out);
    std::cout << "trace saved to " << trace_path << "\n";
  }
  std::cout << "\n";

  struct Scenario {
    std::string label;
    bool staging;
    bool migration;
  };
  const std::vector<Scenario> scenarios = {
      {"continuous, no DRM", false, false},
      {"20% staging only", true, false},
      {"DRM only", false, true},
      {"20% staging + DRM", true, true},
  };

  TablePrinter table({"configuration", "utilization", "rejection", "migr steps"});
  for (const Scenario& scenario : scenarios) {
    SimulationConfig config = base;
    config.client.staging_fraction = scenario.staging ? 0.2 : 0.0;
    config.admission.migration.enabled = scenario.migration;
    config.admission.migration.max_hops_per_request = 1;
    VodSimulation simulation(config, trace);
    const Metrics& metrics = simulation.run();
    table.add_row({scenario.label, TablePrinter::num(metrics.utilization()),
                   TablePrinter::num(metrics.rejection_ratio()),
                   std::to_string(metrics.migration_steps())});
  }
  table.print(std::cout);
  std::cout << "\nSame arrivals in every row (trace replay): the deltas are "
               "pure policy effects. Even placement needs no popularity "
               "forecast despite the drifting demand.\n";
  return 0;
} catch (const std::invalid_argument& error) {
  // A flag value the configuration rejects is a usage error, not a crash.
  std::cerr << "clip_server: " << error.what() << "\n";
  return 2;
}
