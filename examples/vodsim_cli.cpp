/// \file vodsim_cli.cpp
/// \brief Full command-line front-end: every engine knob on flags.
///
/// Runs one or more trials of an arbitrary configuration and prints a
/// complete metrics report. The config flags are the field-table rows
/// (engine/config_schema.h) that carry a flag name; one loop each
/// registers, parses, range-checks and documents them. A flag that is set
/// either takes effect or the run exits 2 with a message naming it:
///   - system flags (--servers ... --view-bw) override the --system preset;
///   - a "0 = off" flag (--mtbf-hours, --brownout-hours, --racks, ...)
///     switches its feature on when nonzero, and any fault process arms
///     the fault subsystem (per-server crashes need --mtbf-hours > 0);
///   - out-of-range values, and flags whose feature stays off
///     (--brownout-factor without --brownout-hours, --zones without
///     --racks), are errors.
///
/// Examples:
///   vodsim_cli --system large --theta 0 --staging 0.2 --migration true
///   vodsim_cli --servers 8 --bandwidth 200 --videos 400 --scheduler lftf
///   vodsim_cli --system small --buffer-aware true --scheduler intermittent

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "vodsim/engine/config_schema.h"
#include "vodsim/engine/experiment.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/obs/exporters.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/table.h"

namespace {

using namespace vodsim;

std::string flag(const ConfigField& field) { return std::string("--") + field.cli.name; }

/// The flags that switch the bool row \p gate on: its own flag, and the
/// "0 = off" flags gated by it (directly or further up).
std::string arming_flags(const ConfigField& gate) {
  if (gate.path == std::string_view("probe.enabled")) return "--probe-out";
  std::string flags;
  for (const ConfigField& field : config_fields()) {
    bool arms = &field == &gate;
    for (const ConfigField* g = gate_of(field); field.cli.zero == CliZero::kOff && g;
         g = gate_of(*g)) {
      arms = arms || g == &gate;
    }
    if (arms && field.cli.name) flags += (flags.empty() ? "" : " or ") + flag(field);
  }
  return flags;
}

/// Reads \p field's flag into \p config through the row's C++-literal
/// parser. A "0 = off" flag at 0 leaves the field and its gate alone; any
/// other value switches its gates on.
void apply(const CliParser& cli, const ConfigField& field, SimulationConfig& config) {
  std::string text = cli.get_string(field.cli.name);
  double value = std::strtod(text.c_str(), nullptr);  // parse() checked numbers
  if (field.kind == FieldKind::kBool) {
    value = text == "true";
  } else if (field.kind == FieldKind::kEnum) {
    value = enum_from_string<int>(field.enumerators, text, "value");
    text = field.enumerators[static_cast<std::size_t>(value)].cpp;
  }
  if (value == 0.0 && field.cli.zero == CliZero::kOff) return;
  if (field.kind == FieldKind::kReal) {
    value = value == 0.0 && field.cli.zero == CliZero::kUnlimited
                ? std::numeric_limits<double>::infinity()
                : value * field.cli.unit;
    text = real_literal(value);
  }
  if (!field.range.contains(value)) {
    throw std::invalid_argument("must be in " + field.range.describe(field.cli.unit) +
                                ", got " + cli.get_string(field.cli.name));
  }
  if (!field.parse(config, text)) throw std::invalid_argument("invalid value " + text);
  for (const ConfigField* g = gate_of(field); field.cli.zero == CliZero::kOff && g;
       g = gate_of(*g)) {
    g->parse(config, "true");
  }
}

/// Builds and validates the configuration the flags describe. Throws
/// std::invalid_argument with a message naming the offending flag.
SimulationConfig build_config(const CliParser& cli) {
  SimulationConfig config;
  const std::string preset = cli.get_string("system");
  if (preset != "small" && preset != "large" && preset != "custom") {
    throw std::invalid_argument("--system: unknown preset " + preset);
  }
  if (preset != "custom") {
    config.system =
        preset == "small" ? SystemConfig::small_system() : SystemConfig::large_system();
  }
  for (const ConfigField& field : config_fields()) {
    // A flag without a fallback keeps the preset's value unless set.
    if (field.cli.name == nullptr || (!field.cli.fallback && !cli.has(field.cli.name))) {
      continue;
    }
    try {
      apply(cli, field, config);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(flag(field) + ": " + error.what());
    }
  }
  // Any fault process arms failure.enabled; per-server crashes need their
  // own MTBF, so without one they are pushed past any realistic horizon.
  const bool crashes = cli.get_double("mtbf-hours") != 0.0;
  if (cli.has("mttr-hours") && !crashes) {
    throw std::invalid_argument("--mttr-hours has no effect unless --mtbf-hours is set");
  }
  if (config.failure.enabled && !crashes) {
    config.failure.mean_time_between_failures = hours(1e9);
  }
  // Settings derived from others rather than set by a flag.
  if (config.failure.retry.enabled) {
    config.failure.retry.backoff_cap =
        std::max(config.failure.retry.backoff_cap, config.failure.retry.backoff_base);
  }
  if (config.drift.enabled) {
    config.drift.step = std::max<std::size_t>(1, config.system.num_videos / 10);
  }
  // Observability artifacts attach to a re-run of trial 0 (see main).
  config.trace.enabled =
      !cli.get_string("trace-out").empty() || !cli.get_string("trace-jsonl").empty();
  config.probe.enabled = !cli.get_string("probe-out").empty();
  if (cli.has("trace-categories") && !config.trace.enabled) {
    throw std::invalid_argument(
        "--trace-categories has no effect unless --trace-out or --trace-jsonl is set");
  }
  try {
    config.trace.categories = parse_trace_categories(cli.get_string("trace-categories"));
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string("--trace-categories: ") + error.what());
  }
  for (const ConfigField& field : config_fields()) {
    if (field.cli.name == nullptr || !cli.has(field.cli.name)) continue;
    // Domain faults need a topology, which validate() checks by field path.
    if (!config.topology.enabled &&
        std::string_view(field.path).starts_with("failure.domains.")) {
      throw std::invalid_argument(flag(field) + " needs --racks");
    }
    // A set flag whose gate stayed off would be silently ignored.
    if (field.cli.zero == CliZero::kOff || gate_open(field, config)) continue;
    const ConfigField* closed = gate_of(field);
    while (closed->get(config) != 0.0) closed = gate_of(*closed);
    throw std::invalid_argument(flag(field) + " has no effect unless " +
                                arming_flags(*closed) + " is set");
  }
  config.validate();
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("vodsim_cli", "cluster-VoD simulator, all knobs exposed");
  cli.add_flag("system", "small", "preset: small | large | custom");
  SimulationConfig preset;
  preset.system = SystemConfig::small_system();
  for (const ConfigField& field : config_fields()) {
    if (field.cli.name == nullptr) continue;
    const double scale = field.cli.unit;
    std::ostringstream fallback, help;
    fallback << field.get(preset) / scale;
    help << field.cli.help;
    for (const EnumName& name : field.enumerators) {
      help << (&name == field.enumerators.data() ? ": " : " | ") << name.cli;
    }
    if (field.kind != FieldKind::kEnum &&
        (std::isfinite(field.range.lo) || std::isfinite(field.range.hi))) {
      help << "; range " << field.range.describe(scale);
    }
    cli.add_flag(field.cli.name, field.cli.fallback ? field.cli.fallback : fallback.str(),
                 help.str());
  }
  cli.add_flag("trials", "1", "independent trials (mean ± 95% CI if > 1)");
  // Observability (re-runs trial 0 with tracing attached; observe-only, so
  // the traced run is bit-identical to the reported one).
  cli.add_flag("trace-out", "", "write a chrome://tracing JSON trace here");
  cli.add_flag("trace-jsonl", "", "write a vodsim-trace-v1 JSONL trace here");
  cli.add_flag("trace-categories", "all",
               "categories to record: all, or e.g. admission,migration");
  cli.add_flag("probe-out", "", "write the probe time series CSV here");
  cli.add_flag("csv-out", "", "write per-trial results (incl. bound/gap columns) here");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  SimulationConfig config;
  long trials = 0;
  try {
    config = build_config(cli);
    trials = cli.get_long("trials");
    if (trials < 1) throw std::invalid_argument("--trials must be >= 1");
  } catch (const std::invalid_argument& error) {
    std::cerr << "invalid configuration: " << error.what() << "\n";
    return 2;
  }

  // The reported trials run without the observability attachments.
  SimulationConfig untraced = config;
  untraced.trace = TraceConfig{};
  untraced.probe = ProbeConfig{};
  ExperimentRunner runner;
  const ExperimentPoint point =
      runner.run_point(untraced, static_cast<int>(trials), config.seed);

  std::cout << "vodsim_cli — " << config.system.name << " system, "
            << config.system.num_servers << " servers x "
            << config.system.server_bandwidth << " Mb/s, theta "
            << config.zipf_theta << ", " << trials << " trial(s) x "
            << cli.get_double("hours") << " h";
  if (config.shards > 1) std::cout << " [shards=" << config.shards << "]";
  std::cout << "\n\n";

  // Sum, and mean ± 95% CI, of one TrialResult member across the trials.
  const auto total = [&point](auto member) {
    std::remove_cvref_t<decltype(point.trials.front().*member)> sum{};
    for (const TrialResult& trial : point.trials) sum += trial.*member;
    return sum;
  };
  const auto sum = [&total](auto member) { return std::to_string(total(member)); };
  const auto mean = [&point](auto member) {
    Accumulator values;
    for (const TrialResult& trial : point.trials) values.add(trial.*member);
    return format_mean_ci(values);
  };

  // Analytic achievability envelope (analysis/bounds.h): bounds are computed
  // per trial world (catalog/placement vary with the trial seed), so report
  // their mean alongside the measured means and the gap accumulators.
  TablePrinter table({"metric", "value"});
  table.add_row({"utilization", format_mean_ci(point.utilization)});
  table.add_row({"utilization bound (UB)", mean(&TrialResult::bound_utilization)});
  table.add_row({"utilization gap", format_mean_ci(point.utilization_gap)});
  table.add_row({"rejection ratio", format_mean_ci(point.rejection_ratio)});
  table.add_row({"rejection bound (LB)", mean(&TrialResult::bound_rejection)});
  table.add_row({"rejection gap", format_mean_ci(point.rejection_gap)});
  table.add_row(
      {"migrations per arrival", format_mean_ci(point.migrations_per_arrival)});
  table.add_row({"arrivals (all trials)", sum(&TrialResult::arrivals)});
  table.add_row({"dropped streams", sum(&TrialResult::drops)});
  table.add_row({"continuity violations", sum(&TrialResult::underflow_events)});

  // Resilience block: only interesting when some fault machinery is on.
  if (config.failure.enabled || !config.scripted_faults.empty() ||
      config.failure.retry.enabled) {
    Accumulator recovery;
    for (const TrialResult& trial : point.trials) {
      if (trial.server_downs > 0) recovery.add(trial.mean_recovery_time);
    }
    table.add_row({"availability", mean(&TrialResult::availability)});
    table.add_row({"glitch seconds (all trials)", sum(&TrialResult::glitch_seconds)});
    table.add_row({"server down episodes", sum(&TrialResult::server_downs)});
    table.add_row({"streams shed (brownouts)", sum(&TrialResult::sheds)});
    table.add_row({"retry enqueued", sum(&TrialResult::retry_enqueued)});
    table.add_row({"retry readmitted", sum(&TrialResult::readmissions)});
    table.add_row({"retry abandoned", sum(&TrialResult::retry_abandoned)});
    table.add_row({"repair replications", sum(&TrialResult::repairs)});
    if (recovery.count() > 0) {
      table.add_row({"mean recovery time (s)", format_mean_ci(recovery)});
    }

    // Failure-domain block: per-rack/zone availability and glitch budget,
    // plus the partition episode counters. Trials share a topology shape,
    // so per-domain values aggregate across trials index by index.
    if (config.topology.enabled) {
      Accumulator partition_time;
      for (const TrialResult& trial : point.trials) {
        if (trial.partition_heals > 0) partition_time.add(trial.mean_partition_time);
      }
      table.add_row({"partition episodes", sum(&TrialResult::partitions)});
      table.add_row({"partition heals", sum(&TrialResult::partition_heals)});
      if (partition_time.count() > 0) {
        table.add_row(
            {"mean partition time (s)", format_mean_ci(partition_time)});
      }
      const TrialResult& first = point.trials.front();
      for (std::size_t r = 0; r < first.rack_availability.size(); ++r) {
        Accumulator availability;
        double glitch = 0.0;
        for (const TrialResult& trial : point.trials) {
          availability.add(trial.rack_availability[r]);
          glitch += trial.rack_glitch_seconds[r];
        }
        const std::string rack = "rack " + std::to_string(r);
        table.add_row({rack + " availability", format_mean_ci(availability)});
        table.add_row({rack + " glitch seconds", std::to_string(glitch)});
      }
      // A single zone repeats the whole-cluster row; only print a real split.
      const std::size_t zones = first.zone_availability.size();
      for (std::size_t z = 0; zones > 1 && z < zones; ++z) {
        Accumulator availability;
        for (const TrialResult& trial : point.trials) {
          availability.add(trial.zone_availability[z]);
        }
        table.add_row({"zone " + std::to_string(z) + " availability",
                       format_mean_ci(availability)});
      }
    }
  }

  // Sharded-engine block: the coordinator/shard event split. The share is
  // of event counts, not of wall time — a coordinator event (admission,
  // migration search) costs far more than a predicted per-stream event.
  if (config.shards > 1) {
    const auto coordinator = static_cast<double>(total(&TrialResult::coordinator_events));
    const auto events = static_cast<double>(total(&TrialResult::coordinator_events) +
                                            total(&TrialResult::shard_events));
    table.add_row({"coordinator events", sum(&TrialResult::coordinator_events)});
    table.add_row({"shard events", sum(&TrialResult::shard_events)});
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.4f", events > 0 ? coordinator / events : 1.0);
    table.add_row({"coordinator event share", frac});
  }
  table.print(std::cout);

  // Writes one artifact file when its flag names a path; false when the
  // path cannot be opened, which fails the run.
  const auto write = [&cli](const char* flag, const char* what, auto&& emit) {
    const std::string path = cli.get_string(flag);
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    emit(out);
    std::cout << "wrote " << what << " to " << path << "\n";
    return true;
  };
  const bool csv_written =
      write("csv-out", "per-trial CSV (with bound/gap columns)", [&](std::ostream& out) {
        write_sweep_csv(out, {config.system.name}, {point});
        std::cout << "\n";  // a blank line between the table and the note
      });
  if (!csv_written) return 1;

  // Observability artifacts: re-run trial 0 with the recorder/probes
  // attached. Tracing is observe-only, so this run is bit-identical to the
  // trial reported above.
  if (config.trace.enabled || config.probe.enabled) {
    SimulationConfig traced = config;
    traced.seed = ExperimentRunner::derive_seed(config.seed, 0);
    VodSimulation simulation(traced);
    simulation.run();

    std::cout << "\n";
    const bool chrome_written =
        write("trace-out", "Chrome trace (load in chrome://tracing)", [&](std::ostream& out) {
          write_chrome_trace(out, simulation.merged_trace_events(), simulation.trace_totals(),
                             simulation.probes(), simulation.servers().size());
        });
    if (!chrome_written) return 1;
    const bool jsonl_written = write("trace-jsonl", "JSONL trace", [&](std::ostream& out) {
      write_trace_jsonl(out, simulation.merged_trace_events(), simulation.trace_totals());
    });
    if (!jsonl_written) return 1;
    if (config.probe.enabled && simulation.probes() == nullptr) {
      // Sharded runs drain per-stream events in parallel shard queues, so
      // the engine has no global event boundary to sample on and leaves
      // probes detached (vod_simulation.cpp build_world).
      std::cout << "note: probes are unavailable with --shards > 1; "
                   "no probe CSV written\n";
    } else if (!write("probe-out", "probe series", [&](std::ostream& out) {
                 write_probe_csv(out, *simulation.probes());
               })) {
      return 1;
    }
    if (const std::uint64_t dropped = simulation.trace_totals().dropped; dropped > 0) {
      std::cout << "note: ring dropped " << dropped
                << " events; raise VODSIM_TRACE_CAPACITY or narrow "
                   "--trace-categories\n";
    }
  }
  return 0;
}
