/// \file vodsim_cli.cpp
/// \brief Full command-line front-end: every engine knob on flags.
///
/// Runs one or more trials of an arbitrary configuration and prints a
/// complete metrics report. Useful for exploring the design space without
/// writing code, and as a reference for what the library exposes.
///
/// Examples:
///   vodsim_cli --system large --theta 0 --staging 0.2 --migration true
///   vodsim_cli --servers 8 --bandwidth 200 --videos 400 --scheduler lftf
///   vodsim_cli --system small --buffer-aware true --scheduler intermittent

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "vodsim/engine/experiment.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/obs/exporters.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/table.h"

int main(int argc, char** argv) {
  using namespace vodsim;
  CliParser cli("vodsim_cli", "cluster-VoD simulator, all knobs exposed");
  // System.
  cli.add_flag("system", "small", "preset: small | large | custom");
  cli.add_flag("servers", "5", "custom: number of servers");
  cli.add_flag("bandwidth", "100", "custom: per-server bandwidth, Mb/s");
  cli.add_flag("storage-gb", "100", "custom: per-server disk, GB");
  cli.add_flag("videos", "300", "custom: catalog size");
  cli.add_flag("min-minutes", "10", "custom: shortest video, minutes");
  cli.add_flag("max-minutes", "30", "custom: longest video, minutes");
  cli.add_flag("copies", "2.2", "average replicas per video");
  cli.add_flag("view-bw", "3", "playback rate, Mb/s");
  // Client.
  cli.add_flag("staging", "0.2", "client staging buffer (fraction of avg video)");
  cli.add_flag("receive-bw", "30", "client receive cap, Mb/s (0 = unlimited)");
  // Policies.
  cli.add_flag("placement", "even",
               "even | partial | predictive | bsr | domain_spread");
  cli.add_flag("assignment", "least-loaded",
               "least-loaded | random | first-fit | most-loaded");
  cli.add_flag("scheduler", "eftf",
               "eftf | continuous | proportional | lftf | intermittent");
  cli.add_flag("migration", "true", "dynamic request migration on/off");
  cli.add_flag("chain", "1", "migration chain length");
  cli.add_flag("hops", "1", "max hops per request (-1 = unlimited)");
  cli.add_flag("victim", "first-fit",
               "first-fit | least-remaining | most-remaining | most-buffered");
  cli.add_flag("switch-latency", "0", "migration stream pause, seconds");
  cli.add_flag("buffer-aware", "false",
               "aggressive admission (needs --scheduler intermittent)");
  // Extensions.
  cli.add_flag("replication", "false", "dynamic replication on rejection bursts");
  cli.add_flag("pauses-per-hour", "0", "viewer pause rate (0 = off)");
  cli.add_flag("mean-pause", "120", "mean pause length, seconds");
  cli.add_flag("mtbf-hours", "0", "server MTBF in hours (0 = no failures)");
  cli.add_flag("mttr-hours", "1", "server MTTR in hours");
  cli.add_flag("min-dwell", "0", "flap guard: min seconds between fault flips");
  cli.add_flag("brownout-hours", "0",
               "mean hours between partial capacity losses (0 = off)");
  cli.add_flag("brownout-minutes", "10", "mean brownout length, minutes");
  cli.add_flag("brownout-factor", "0.5", "surviving capacity fraction, (0,1)");
  cli.add_flag("correlated-group", "0",
               "servers per correlated failure group (0 = off)");
  cli.add_flag("correlated-hours", "500", "mean hours between group outages");
  cli.add_flag("retry", "false", "retry queue: re-admit sheds/orphans/rejects");
  cli.add_flag("retry-queue", "64", "retry queue capacity");
  cli.add_flag("retry-attempts", "6", "retry attempts before abandoning");
  cli.add_flag("retry-backoff", "5", "base retry backoff, seconds (doubles)");
  cli.add_flag("repair-hours", "0",
               "re-replicate servers down longer than this (0 = off)");
  // Failure-domain topology (server -> rack -> zone tree).
  cli.add_flag("racks", "0", "failure-domain racks (0 = no topology)");
  cli.add_flag("zones", "1", "failure-domain zones (needs --racks)");
  cli.add_flag("rack-outage-hours", "0",
               "mean hours between whole-rack outages, per rack (0 = off)");
  cli.add_flag("rack-outage-minutes", "30", "mean rack outage length, minutes");
  cli.add_flag("zone-brownout-hours", "0",
               "mean hours between zone-wide brownouts, per zone (0 = off)");
  cli.add_flag("zone-brownout-minutes", "15",
               "mean zone brownout length, minutes");
  cli.add_flag("zone-brownout-factor", "0.5",
               "surviving capacity fraction during a zone brownout, (0,1)");
  cli.add_flag("partition-hours", "0",
               "mean hours between rack network partitions, per rack (0 = "
               "off; servers stay up but unreachable)");
  cli.add_flag("partition-minutes", "5", "mean partition length, minutes");
  cli.add_flag("glitch-dedupe", "1",
               "per-stream glitch dedupe window, seconds (0 = count every "
               "underflow as its own interruption)");
  cli.add_flag("drift-hours", "0", "popularity drift period (0 = static)");
  // Workload.
  cli.add_flag("theta", "0.271", "Zipf skew (1 uniform .. -1.5 extreme)");
  cli.add_flag("load", "1.0", "offered load as a fraction of capacity");
  cli.add_flag("hours", "60", "simulated hours");
  cli.add_flag("warmup-hours", "5", "discarded warmup");
  cli.add_flag("trials", "1", "independent trials (mean ± 95% CI if > 1)");
  cli.add_flag("seed", "42", "master seed");
  cli.add_flag("shards", "1",
               "server-group shards draining predicted events in parallel "
               "(1 = classic single-queue engine; fixed shard count is "
               "bit-reproducible at any thread count)");
  cli.add_flag("shard-threads", "0",
               "drain worker threads for --shards > 1 (0 = all cores; "
               "thread count never changes results)");
  // Observability (re-runs trial 0 with tracing attached; observe-only, so
  // the traced run is bit-identical to the reported one).
  cli.add_flag("trace-out", "", "write a chrome://tracing JSON trace here");
  cli.add_flag("trace-jsonl", "", "write a vodsim-trace-v1 JSONL trace here");
  cli.add_flag("trace-categories", "all",
               "categories to record: all, or e.g. admission,migration");
  cli.add_flag("probe-out", "", "write the probe time series CSV here");
  cli.add_flag("probe-period", "60", "probe sampling period, seconds");
  cli.add_flag("csv-out", "", "write per-trial results (incl. bound/gap columns) here");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  SimulationConfig config;
  const std::string system = cli.get_string("system");
  if (system == "small") {
    config.system = SystemConfig::small_system();
  } else if (system == "large") {
    config.system = SystemConfig::large_system();
  } else {
    config.system.name = "custom";
    config.system.num_servers = static_cast<int>(cli.get_long("servers"));
    config.system.server_bandwidth = cli.get_double("bandwidth");
    config.system.server_storage = gigabytes(cli.get_double("storage-gb"));
    config.system.num_videos = static_cast<std::size_t>(cli.get_long("videos"));
    config.system.video_min_duration = minutes(cli.get_double("min-minutes"));
    config.system.video_max_duration = minutes(cli.get_double("max-minutes"));
  }
  config.system.avg_copies = cli.get_double("copies");
  config.system.view_bandwidth = cli.get_double("view-bw");

  config.client.staging_fraction = cli.get_double("staging");
  const double receive = cli.get_double("receive-bw");
  config.client.receive_bandwidth =
      receive > 0.0 ? receive : std::numeric_limits<double>::infinity();

  config.admission.migration.enabled = cli.get_bool("migration");
  config.admission.migration.max_chain_length = static_cast<int>(cli.get_long("chain"));
  config.admission.migration.max_hops_per_request =
      static_cast<int>(cli.get_long("hops"));
  config.admission.migration.switch_latency = cli.get_double("switch-latency");
  config.admission.buffer_aware = cli.get_bool("buffer-aware");

  config.replication.enabled = cli.get_bool("replication");
  if (cli.get_double("pauses-per-hour") > 0.0) {
    config.interactivity.enabled = true;
    config.interactivity.pauses_per_hour = cli.get_double("pauses-per-hour");
    config.interactivity.mean_pause_duration = cli.get_double("mean-pause");
  }
  if (cli.get_double("mtbf-hours") > 0.0) {
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(cli.get_double("mtbf-hours"));
    config.failure.mean_time_to_repair = hours(cli.get_double("mttr-hours"));
    config.failure.min_dwell = cli.get_double("min-dwell");
    if (cli.get_double("brownout-hours") > 0.0) {
      config.failure.brownout.enabled = true;
      config.failure.brownout.mean_time_between =
          hours(cli.get_double("brownout-hours"));
      config.failure.brownout.mean_duration =
          minutes(cli.get_double("brownout-minutes"));
      config.failure.brownout.capacity_factor = cli.get_double("brownout-factor");
    }
    if (cli.get_long("correlated-group") > 0) {
      config.failure.correlated.enabled = true;
      config.failure.correlated.group_size =
          static_cast<int>(cli.get_long("correlated-group"));
      config.failure.correlated.mean_time_between =
          hours(cli.get_double("correlated-hours"));
    }
  }
  if (cli.get_bool("retry")) {
    config.failure.retry.enabled = true;
    config.failure.retry.max_queue =
        static_cast<std::size_t>(cli.get_long("retry-queue"));
    config.failure.retry.max_attempts =
        static_cast<int>(cli.get_long("retry-attempts"));
    config.failure.retry.backoff_base = cli.get_double("retry-backoff");
    config.failure.retry.backoff_cap =
        std::max(config.failure.retry.backoff_cap,
                 config.failure.retry.backoff_base);
  }
  if (cli.get_double("repair-hours") > 0.0) {
    config.failure.repair.enabled = true;
    config.failure.repair.down_threshold = hours(cli.get_double("repair-hours"));
  }
  if (cli.get_long("racks") > 0) {
    config.topology.enabled = true;
    config.topology.racks = static_cast<int>(cli.get_long("racks"));
    config.topology.zones = static_cast<int>(cli.get_long("zones"));
    const bool domain_faults = cli.get_double("rack-outage-hours") > 0.0 ||
                               cli.get_double("zone-brownout-hours") > 0.0 ||
                               cli.get_double("partition-hours") > 0.0;
    if (domain_faults && !config.failure.enabled) {
      // Domain faults ride on the fault subsystem; arm it with per-server
      // crashes pushed past any realistic horizon so only the requested
      // domain episodes fire.
      config.failure.enabled = true;
      config.failure.mean_time_between_failures = hours(1e9);
    }
    if (cli.get_double("rack-outage-hours") > 0.0) {
      config.failure.domains.rack_outage.enabled = true;
      config.failure.domains.rack_outage.mean_time_between =
          hours(cli.get_double("rack-outage-hours"));
      config.failure.domains.rack_outage.mean_duration =
          minutes(cli.get_double("rack-outage-minutes"));
    }
    if (cli.get_double("zone-brownout-hours") > 0.0) {
      config.failure.domains.zone_brownout.enabled = true;
      config.failure.domains.zone_brownout.mean_time_between =
          hours(cli.get_double("zone-brownout-hours"));
      config.failure.domains.zone_brownout.mean_duration =
          minutes(cli.get_double("zone-brownout-minutes"));
      config.failure.domains.zone_brownout.capacity_factor =
          cli.get_double("zone-brownout-factor");
    }
    if (cli.get_double("partition-hours") > 0.0) {
      config.failure.domains.partition.enabled = true;
      config.failure.domains.partition.mean_time_between =
          hours(cli.get_double("partition-hours"));
      config.failure.domains.partition.mean_duration =
          minutes(cli.get_double("partition-minutes"));
    }
  }
  config.failure.glitch_dedupe_window = cli.get_double("glitch-dedupe");
  if (cli.get_double("drift-hours") > 0.0) {
    config.drift.enabled = true;
    config.drift.period = hours(cli.get_double("drift-hours"));
    config.drift.step = std::max<std::size_t>(1, config.system.num_videos / 10);
  }

  config.zipf_theta = cli.get_double("theta");
  config.load_factor = cli.get_double("load");
  config.duration = hours(cli.get_double("hours"));
  config.warmup = hours(cli.get_double("warmup-hours"));
  config.seed = static_cast<std::uint64_t>(cli.get_long("seed"));
  config.shards = static_cast<int>(cli.get_long("shards"));
  config.shard_threads = static_cast<int>(cli.get_long("shard-threads"));

  // The enum parsers throw on unknown names; report them like any other
  // invalid configuration.
  try {
    config.placement.kind = placement_kind_from_string(cli.get_string("placement"));
    config.admission.assignment =
        assignment_kind_from_string(cli.get_string("assignment"));
    config.scheduler = scheduler_kind_from_string(cli.get_string("scheduler"));
    config.admission.migration.victim =
        victim_strategy_from_string(cli.get_string("victim"));
    config.validate();
  } catch (const std::exception& error) {
    std::cerr << "invalid configuration: " << error.what() << "\n";
    return 2;
  }

  const int trials = static_cast<int>(cli.get_long("trials"));
  ExperimentRunner runner;
  const ExperimentPoint point = runner.run_point(config, trials, config.seed);

  std::cout << "vodsim_cli — " << config.system.name << " system, "
            << config.system.num_servers << " servers x "
            << config.system.server_bandwidth << " Mb/s, theta "
            << config.zipf_theta << ", " << trials << " trial(s) x "
            << cli.get_double("hours") << " h";
  if (config.shards > 1) std::cout << " [shards=" << config.shards << "]";
  std::cout << "\n\n";

  // Analytic achievability envelope (analysis/bounds.h): bounds are computed
  // per trial world (catalog/placement vary with the trial seed), so report
  // their mean alongside the measured means and the gap accumulators.
  Accumulator bound_utilization;
  Accumulator bound_rejection;
  for (const TrialResult& trial : point.trials) {
    bound_utilization.add(trial.bound_utilization);
    bound_rejection.add(trial.bound_rejection);
  }

  TablePrinter table({"metric", "value"});
  table.add_row({"utilization", format_mean_ci(point.utilization)});
  table.add_row({"utilization bound (UB)", format_mean_ci(bound_utilization)});
  table.add_row({"utilization gap", format_mean_ci(point.utilization_gap)});
  table.add_row({"rejection ratio", format_mean_ci(point.rejection_ratio)});
  table.add_row({"rejection bound (LB)", format_mean_ci(bound_rejection)});
  table.add_row({"rejection gap", format_mean_ci(point.rejection_gap)});
  table.add_row(
      {"migrations per arrival", format_mean_ci(point.migrations_per_arrival)});
  std::uint64_t underflows = 0;
  std::uint64_t drops = 0;
  std::uint64_t arrivals = 0;
  for (const TrialResult& trial : point.trials) {
    underflows += trial.underflow_events;
    drops += trial.drops;
    arrivals += trial.arrivals;
  }
  table.add_row({"arrivals (all trials)", std::to_string(arrivals)});
  table.add_row({"dropped streams", std::to_string(drops)});
  table.add_row({"continuity violations", std::to_string(underflows)});

  // Resilience block: only interesting when some fault machinery is on.
  if (config.failure.enabled || !config.scripted_faults.empty() ||
      config.failure.retry.enabled) {
    Accumulator availability;
    double glitch_seconds = 0.0;
    std::uint64_t downs = 0, sheds = 0, enqueued = 0, readmitted = 0,
                  abandoned = 0, repairs = 0;
    Accumulator recovery;
    for (const TrialResult& trial : point.trials) {
      availability.add(trial.availability);
      glitch_seconds += trial.glitch_seconds;
      downs += trial.server_downs;
      sheds += trial.sheds;
      enqueued += trial.retry_enqueued;
      readmitted += trial.readmissions;
      abandoned += trial.retry_abandoned;
      repairs += trial.repairs;
      if (trial.server_downs > 0) recovery.add(trial.mean_recovery_time);
    }
    table.add_row({"availability", format_mean_ci(availability)});
    table.add_row({"glitch seconds (all trials)", std::to_string(glitch_seconds)});
    table.add_row({"server down episodes", std::to_string(downs)});
    table.add_row({"streams shed (brownouts)", std::to_string(sheds)});
    table.add_row({"retry enqueued", std::to_string(enqueued)});
    table.add_row({"retry readmitted", std::to_string(readmitted)});
    table.add_row({"retry abandoned", std::to_string(abandoned)});
    table.add_row({"repair replications", std::to_string(repairs)});
    if (recovery.count() > 0) {
      table.add_row({"mean recovery time (s)", format_mean_ci(recovery)});
    }

    // Failure-domain block: per-rack/zone availability and glitch budget,
    // plus the partition episode counters. Trials share a topology shape,
    // so per-domain values aggregate across trials index by index.
    if (config.topology.enabled) {
      std::uint64_t partitions = 0, heals = 0;
      Accumulator partition_time;
      for (const TrialResult& trial : point.trials) {
        partitions += trial.partitions;
        heals += trial.partition_heals;
        if (trial.partition_heals > 0) partition_time.add(trial.mean_partition_time);
      }
      table.add_row({"partition episodes", std::to_string(partitions)});
      table.add_row({"partition heals", std::to_string(heals)});
      if (partition_time.count() > 0) {
        table.add_row(
            {"mean partition time (s)", format_mean_ci(partition_time)});
      }
      const std::size_t racks =
          point.trials.empty() ? 0 : point.trials.front().rack_availability.size();
      for (std::size_t r = 0; r < racks; ++r) {
        Accumulator avail;
        double glitch = 0.0;
        for (const TrialResult& trial : point.trials) {
          if (r < trial.rack_availability.size()) {
            avail.add(trial.rack_availability[r]);
            glitch += trial.rack_glitch_seconds[r];
          }
        }
        char label[48];
        std::snprintf(label, sizeof(label), "rack %zu availability", r);
        table.add_row({label, format_mean_ci(avail)});
        std::snprintf(label, sizeof(label), "rack %zu glitch seconds", r);
        table.add_row({label, std::to_string(glitch)});
      }
      const std::size_t zones =
          point.trials.empty() ? 0 : point.trials.front().zone_availability.size();
      // A single zone repeats the whole-cluster row; only print a real split.
      for (std::size_t z = 0; zones > 1 && z < zones; ++z) {
        Accumulator avail;
        for (const TrialResult& trial : point.trials) {
          if (z < trial.zone_availability.size()) {
            avail.add(trial.zone_availability[z]);
          }
        }
        char label[48];
        std::snprintf(label, sizeof(label), "zone %zu availability", z);
        table.add_row({label, format_mean_ci(avail)});
      }
    }
  }

  // Sharded-engine block: the coordinator/shard event split. The share is
  // of event counts, not of wall time — a coordinator event (admission,
  // migration search) costs far more than a predicted per-stream event.
  if (config.shards > 1) {
    std::uint64_t coordinator = 0, sharded = 0;
    for (const TrialResult& trial : point.trials) {
      coordinator += trial.coordinator_events;
      sharded += trial.shard_events;
    }
    const std::uint64_t total = coordinator + sharded;
    table.add_row({"coordinator events", std::to_string(coordinator)});
    table.add_row({"shard events", std::to_string(sharded)});
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.4f",
                  total > 0 ? static_cast<double>(coordinator) /
                                  static_cast<double>(total)
                            : 1.0);
    table.add_row({"coordinator event share", frac});
  }
  table.print(std::cout);

  const std::string csv_out = cli.get_string("csv-out");
  if (!csv_out.empty()) {
    std::ofstream out(csv_out);
    if (!out) {
      std::cerr << "cannot write " << csv_out << "\n";
    } else {
      write_sweep_csv(out, {config.system.name}, {point});
      std::cout << "\nwrote per-trial CSV (with bound/gap columns) to "
                << csv_out << "\n";
    }
  }

  // Observability artifacts: re-run trial 0 with the recorder/probes
  // attached. Tracing is observe-only, so this run is bit-identical to the
  // trial reported above.
  const std::string trace_out = cli.get_string("trace-out");
  const std::string trace_jsonl = cli.get_string("trace-jsonl");
  const std::string probe_out = cli.get_string("probe-out");
  if (!trace_out.empty() || !trace_jsonl.empty() || !probe_out.empty()) {
    SimulationConfig traced = config;
    traced.seed = ExperimentRunner::derive_seed(config.seed, 0);
    traced.trace.enabled = !trace_out.empty() || !trace_jsonl.empty();
    traced.trace.categories =
        parse_trace_categories(cli.get_string("trace-categories"));
    traced.probe.enabled = !probe_out.empty();
    traced.probe.period = cli.get_double("probe-period");

    VodSimulation simulation(traced);
    simulation.run();

    auto open = [](const std::string& path) {
      std::ofstream out(path);
      if (!out) std::cerr << "cannot write " << path << "\n";
      return out;
    };
    std::cout << "\n";
    if (!trace_out.empty()) {
      if (auto out = open(trace_out)) {
        write_chrome_trace(out, *simulation.trace(), simulation.probes(),
                           simulation.servers().size());
        std::cout << "wrote Chrome trace (load in chrome://tracing) to "
                  << trace_out << "\n";
      }
    }
    if (!trace_jsonl.empty()) {
      if (auto out = open(trace_jsonl)) {
        write_trace_jsonl(out, *simulation.trace());
        std::cout << "wrote JSONL trace to " << trace_jsonl << "\n";
      }
    }
    if (!probe_out.empty()) {
      if (simulation.probes() == nullptr) {
        // Sharded runs drain per-stream events in parallel shard queues, so
        // the engine has no global event boundary to sample on and leaves
        // probes detached (vod_simulation.cpp build_world).
        std::cout << "note: probes are unavailable with --shards > 1; "
                     "no probe CSV written\n";
      } else if (auto out = open(probe_out)) {
        write_probe_csv(out, *simulation.probes());
        std::cout << "wrote probe series to " << probe_out << "\n";
      }
    }
    if (simulation.trace() != nullptr && simulation.trace()->dropped() > 0) {
      std::cout << "note: ring dropped " << simulation.trace()->dropped()
                << " events; raise VODSIM_TRACE_CAPACITY or narrow "
                   "--trace-categories\n";
    }
  }
  return 0;
}
