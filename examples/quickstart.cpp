/// \file quickstart.cpp
/// \brief Minimal vodsim walkthrough: configure the paper's small system,
/// run one trial, and print the headline metrics.
///
/// Usage:
///   quickstart [--theta 0.271] [--hours 60] [--staging 0.2]
///              [--migration true] [--seed 1]
///              [--trace-out trace.json] [--probe-out probes.csv]
///
/// `--trace-out trace.json` records every admission/migration/stream event
/// and writes a Chrome tracing file — open chrome://tracing (or
/// https://ui.perfetto.dev) and load it to scrub through the run.

#include <fstream>
#include <iostream>
#include <stdexcept>

#include "vodsim/engine/vod_simulation.h"
#include "vodsim/obs/exporters.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/table.h"

int main(int argc, char** argv) try {
  vodsim::CliParser cli("quickstart",
                        "one trial of the small cluster-VoD system");
  cli.add_flag("theta", "0.271", "Zipf skew (1 = uniform, <0 = extreme)");
  cli.add_flag("hours", "60", "simulated hours");
  cli.add_flag("staging", "0.2", "client staging buffer as a fraction of the "
                                 "average video size");
  cli.add_flag("migration", "true", "enable dynamic request migration");
  cli.add_flag("seed", "1", "RNG seed");
  cli.add_flag("trace-out", "", "write a chrome://tracing JSON trace here");
  cli.add_flag("probe-out", "", "write the probe time series CSV here");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  // 1. Describe the cluster: the paper's small system (5 servers x
  //    100 Mb/s, 10-30 minute clips at 3 Mb/s).
  vodsim::SimulationConfig config;
  config.system = vodsim::SystemConfig::small_system();

  // 2. Client-side staging enables semi-continuous transmission.
  config.client.staging_fraction = cli.get_double("staging");
  config.client.receive_bandwidth = 30.0;  // Mb/s, as in the paper

  // 3. Policies: even placement, least-loaded assignment, and (optionally)
  //    dynamic request migration with the paper's limits.
  config.placement.kind = vodsim::PlacementKind::kEven;
  config.admission.migration.enabled = cli.get_bool("migration");
  config.admission.migration.max_chain_length = 1;
  config.admission.migration.max_hops_per_request = 1;

  // 4. Workload: Poisson arrivals at 100% offered load, Zipf popularity.
  config.zipf_theta = cli.get_double("theta");
  config.duration = vodsim::hours(cli.get_double("hours"));
  config.warmup = vodsim::hours(cli.get_double("hours") / 12.0);
  config.seed = static_cast<std::uint64_t>(cli.get_long("seed"));

  // Optional observability: tracing observes only, so these artifacts come
  // from the exact run reported below.
  const std::string trace_out = cli.get_string("trace-out");
  const std::string probe_out = cli.get_string("probe-out");
  config.trace.enabled = !trace_out.empty();
  config.probe.enabled = !probe_out.empty();

  // 5. Run.
  vodsim::VodSimulation simulation(config);
  const vodsim::Metrics& metrics = simulation.run();

  std::cout << "vodsim quickstart — " << config.system.name << " system, theta="
            << config.zipf_theta << ", staging="
            << config.client.staging_fraction * 100.0 << "%, migration="
            << (config.admission.migration.enabled ? "on" : "off") << "\n\n";

  vodsim::TablePrinter table({"metric", "value"});
  table.add_row({"bandwidth utilization", vodsim::TablePrinter::num(metrics.utilization())});
  table.add_row({"rejection ratio", vodsim::TablePrinter::num(metrics.rejection_ratio())});
  table.add_row({"arrivals (window)", std::to_string(metrics.arrivals())});
  table.add_row({"accepted", std::to_string(metrics.accepts())});
  table.add_row({"  via migration", std::to_string(metrics.accepts_via_migration())});
  table.add_row({"rejected", std::to_string(metrics.rejects())});
  table.add_row({"migration steps", std::to_string(metrics.migration_steps())});
  table.add_row({"completed playbacks", std::to_string(metrics.completions())});
  table.add_row({"continuity violations",
                 std::to_string(simulation.continuity_violations())});
  table.print(std::cout);

  std::cout << "\nReplica placement: " << simulation.placement_result().placed_total
            << " copies of " << simulation.catalog().size() << " videos across "
            << simulation.servers().size() << " servers (shortfall "
            << simulation.placement_result().shortfall << ")\n";

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 1;
    }
    vodsim::write_chrome_trace(out, simulation.merged_trace_events(),
                               simulation.trace_totals(), simulation.probes(),
                               simulation.servers().size());
    std::cout << "\nwrote Chrome trace to " << trace_out
              << " — load it in chrome://tracing\n";
  }
  if (!probe_out.empty()) {
    std::ofstream out(probe_out);
    if (!out) {
      std::cerr << "cannot write " << probe_out << "\n";
      return 1;
    }
    vodsim::write_probe_csv(out, *simulation.probes());
    std::cout << "wrote probe series to " << probe_out << "\n";
  }
  return 0;
} catch (const std::invalid_argument& error) {
  // A flag value the configuration rejects is a usage error, not a crash.
  std::cerr << "quickstart: " << error.what() << "\n";
  return 2;
}
