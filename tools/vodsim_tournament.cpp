/// \file vodsim_tournament.cpp
/// \brief Scheduler x placement x migration-budget tournament vs the bounds.
///
/// Runs the full policy cross — {eftf, continuous, proportional, lftf,
/// intermittent} x {even, bsr, predictive, partial} x migration budgets —
/// at one or more catalog sizes, and reports every cell's distance from the
/// analytic achievability envelope (analysis/bounds.h). Each cell computes
/// the bounds of its own world (about 1 ms at 10^4 titles, less below);
/// they are policy-independent, so cells differing only in scheduler or
/// migration budget are scored against the same envelope, and the gap
/// columns are a like-for-like ranking: a cell with a smaller gap extracts
/// more of what the world mathematically allows.
///
/// Storage is auto-scaled to the catalog (1.5x the replica budget) so the
/// 10^4-title column is placement-constrained by bandwidth, not disk.
///
/// Examples:
///   vodsim_tournament                          # full M3 grid, ~minutes
///   vodsim_tournament --smoke                  # seconds, for CI
///   vodsim_tournament --catalog 1000 --markdown-out m3.md --csv-out m3.csv

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "vodsim/engine/experiment.h"
#include "vodsim/engine/policy_matrix.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/table.h"

namespace {

using namespace vodsim;

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One non-negative int item of a comma-separated list flag; throws
/// std::invalid_argument naming the flag for anything else.
int parse_count(const std::string& flag, const std::string& item) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(item.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || value < 0 ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("--" + flag + ": '" + item +
                                "' is not an integer in [0, " +
                                std::to_string(std::numeric_limits<int>::max()) + "]");
  }
  return static_cast<int>(value);
}

std::string short_number(double value) {
  std::ostringstream out;
  out.precision(4);
  out << value;
  return out.str();
}

int run_tournament(const CliParser& cli) {
  const bool smoke = cli.get_bool("smoke");
  std::vector<std::size_t> catalog_sizes;
  for (const std::string& item : split_list(cli.get_string("catalog"))) {
    catalog_sizes.push_back(static_cast<std::size_t>(parse_count("catalog", item)));
  }
  std::vector<SchedulerKind> schedulers;
  for (const std::string& item : split_list(cli.get_string("schedulers"))) {
    schedulers.push_back(scheduler_kind_from_string(item));
  }
  std::vector<PlacementKind> placements;
  for (const std::string& item : split_list(cli.get_string("placements"))) {
    placements.push_back(placement_kind_from_string(item));
  }
  std::vector<int> budgets;
  for (const std::string& item : split_list(cli.get_string("budgets"))) {
    budgets.push_back(parse_count("budgets", item));
  }
  double hours_per_trial = cli.get_double("hours");
  double warmup_hours = cli.get_double("warmup-hours");
  int trials = static_cast<int>(cli.get_long("trials"));
  if (smoke) {
    catalog_sizes = {60};
    hours_per_trial = 2.0;
    warmup_hours = 0.5;
    trials = 1;
  }

  const std::vector<TournamentSpec> grid = tournament_grid(
      schedulers, placements, budgets, cli.get_double("staging"));
  if (grid.empty() || catalog_sizes.empty()) {
    std::cerr << "empty tournament: need >= 1 scheduler, placement, budget, "
                 "catalog size\n";
    return 2;
  }

  SimulationConfig base;
  base.system = SystemConfig::small_system();
  base.system.num_servers = static_cast<int>(cli.get_long("servers"));
  base.system.server_bandwidth = cli.get_double("bandwidth");
  base.system.avg_copies = cli.get_double("copies");
  base.load_factor = cli.get_double("load");
  base.duration = hours(hours_per_trial);
  base.warmup = hours(warmup_hours);

  ExperimentRunner runner;
  std::ostringstream markdown;
  markdown << "## M3 — policy tournament vs analytic bounds\n\n"
           << "Gap-to-bound per cell (means over " << trials << " trial(s), "
           << hours_per_trial << " h each, load " << base.load_factor
           << ", staging " << cli.get_double("staging")
           << "). `util gap` = achievable UB - measured utilization; "
              "`rej gap` = measured rejection - LB. Smaller is better; "
              "negative is impossible (enforced by the invariant auditor).\n";

  std::vector<std::string> all_labels;
  std::vector<ExperimentPoint> all_points;

  for (std::size_t catalog_size : catalog_sizes) {
    SimulationConfig sized = base;
    sized.system.name = "tournament-n" + std::to_string(catalog_size);
    sized.system.num_videos = catalog_size;
    // Auto-scale disk to the replica budget so placement is never
    // storage-starved: 1.5x (catalog mass x avg copies) / servers.
    const Seconds mean_duration = 0.5 * (sized.system.video_min_duration +
                                         sized.system.video_max_duration);
    const double mean_size = mean_duration * sized.system.view_bandwidth;
    sized.system.server_storage =
        1.5 * static_cast<double>(catalog_size) * sized.system.avg_copies *
        mean_size / static_cast<double>(sized.system.num_servers);

    std::vector<SimulationConfig> configs;
    std::vector<std::string> labels;
    configs.reserve(grid.size());
    for (const TournamentSpec& spec : grid) {
      configs.push_back(apply_tournament_spec(sized, spec));
      labels.push_back("n=" + std::to_string(catalog_size) + "/" + spec.label);
    }
    const std::vector<ExperimentPoint> points =
        runner.run_sweep(configs, trials,
                         static_cast<std::uint64_t>(cli.get_long("seed")));

    std::cout << "\n=== catalog " << catalog_size << " titles, "
              << grid.size() << " cells x " << trials << " trial(s) ===\n";
    TablePrinter table({"cell", "util", "UB", "util gap", "rej", "LB",
                        "rej gap", "migr/arr"});
    markdown << "\n### Catalog " << catalog_size << " titles\n\n"
             << "| cell | util | UB | util gap | rej | LB | rej gap | "
                "migr/arr |\n"
             << "|---|---|---|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ExperimentPoint& point = points[i];
      Accumulator ub, lb;
      for (const TrialResult& trial : point.trials) {
        ub.add(trial.bound_utilization);
        lb.add(trial.bound_rejection);
      }
      const std::vector<std::string> row = {
          grid[i].label,
          short_number(point.utilization.mean()),
          short_number(ub.mean()),
          short_number(point.utilization_gap.mean()),
          short_number(point.rejection_ratio.mean()),
          short_number(lb.mean()),
          short_number(point.rejection_gap.mean()),
          short_number(point.migrations_per_arrival.mean())};
      table.add_row(row);
      markdown << "| " << row[0];
      for (std::size_t c = 1; c < row.size(); ++c) markdown << " | " << row[c];
      markdown << " |\n";
    }
    table.print(std::cout);

    all_labels.insert(all_labels.end(), labels.begin(), labels.end());
    all_points.insert(all_points.end(), points.begin(), points.end());
  }

  // Sanity summary: the auditor enforces this per run in paranoid builds,
  // but the tournament prints it unconditionally as a differential check.
  double worst_util_gap = 0.0;
  double worst_rej_gap = 0.0;
  for (const ExperimentPoint& point : all_points) {
    for (const TrialResult& trial : point.trials) {
      worst_util_gap = std::min(worst_util_gap, trial.utilization_gap);
      worst_rej_gap = std::min(worst_rej_gap, trial.rejection_gap);
    }
  }
  std::cout << "\nworst utilization gap " << worst_util_gap
            << ", worst rejection gap " << worst_rej_gap
            << " (>= -statistical slack expected; a large negative value "
               "means a bound, or the simulator, is broken)\n";
  // Hard gate, deliberately far outside Poisson slack for even the smoke
  // window (single trial, short run: a few percent). The per-run auditor
  // applies the tight, window-aware slack; this catches gross breakage —
  // a measured point beating a proven bound by 10+ points — in any build.
  constexpr double kGrossViolation = -0.10;
  if (worst_util_gap < kGrossViolation || worst_rej_gap < kGrossViolation) {
    std::cerr << "FAIL: measured results beat an analytic bound by more than "
              << -kGrossViolation * 100.0
              << "% -- the simulator or a bound is broken\n";
    return 1;
  }

  const std::string csv_out = cli.get_string("csv-out");
  if (!csv_out.empty()) {
    std::ofstream out(csv_out);
    if (!out) {
      std::cerr << "cannot write " << csv_out << "\n";
      return 1;
    }
    write_sweep_csv(out, all_labels, all_points);
    std::cout << "wrote per-trial CSV to " << csv_out << "\n";
  }
  const std::string markdown_out = cli.get_string("markdown-out");
  if (!markdown_out.empty()) {
    std::ofstream out(markdown_out);
    if (!out) {
      std::cerr << "cannot write " << markdown_out << "\n";
      return 1;
    }
    out << markdown.str();
    std::cout << "wrote markdown gap tables to " << markdown_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("vodsim_tournament",
                "policy tournament scored against the analytic bounds");
  cli.add_flag("catalog", "100,1000,10000", "catalog sizes, comma-separated");
  cli.add_flag("schedulers", "eftf,continuous,proportional,lftf,intermittent",
               "schedulers to enter, comma-separated");
  cli.add_flag("placements", "even,bsr,predictive,partial",
               "placements to enter, comma-separated");
  cli.add_flag("budgets", "0,1",
               "migration hop budgets, comma-separated (0 = off)");
  cli.add_flag("staging", "0.2", "client staging buffer fraction");
  cli.add_flag("load", "1.0", "offered load as a fraction of capacity");
  cli.add_flag("hours", "30", "simulated hours per trial");
  cli.add_flag("warmup-hours", "3", "discarded warmup");
  cli.add_flag("trials", "3", "independent trials per cell");
  cli.add_flag("seed", "42", "master seed");
  cli.add_flag("servers", "5", "number of servers");
  cli.add_flag("bandwidth", "100", "per-server bandwidth, Mb/s");
  cli.add_flag("copies", "2.2", "average replicas per title");
  cli.add_bool_flag("smoke", "tiny instance for CI: 60 titles, 2 h, 1 trial");
  cli.add_flag("csv-out", "", "write per-trial rows (bound/gap columns) here");
  cli.add_flag("markdown-out", "", "write the M3 gap tables (markdown) here");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  // Bad list items, unknown names and configs that fail validation (raised
  // from inside the sweep) are usage errors, not crashes.
  try {
    return run_tournament(cli);
  } catch (const std::invalid_argument& error) {
    std::cerr << "vodsim_tournament: " << error.what() << "\n";
    return 2;
  }
}
