#include "vodsim/engine/config_schema.h"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "vodsim/engine/config.h"

namespace vodsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::string_view kInfLiteral = "std::numeric_limits<double>::infinity()";

constexpr FieldRange kAny{};
constexpr FieldRange kPositive{0.0, kInf, true, true};
constexpr FieldRange kNonNegative{0.0, kInf, false, true};
constexpr FieldRange kOpenUnit{0.0, 1.0, true, true};
constexpr FieldRange at_least(double lo) { return {lo, kInf, false, true}; }

/// The numeric view validate() and the CLI use (bool 0/1, enum index),
/// and the C++ literal to_gtest_case writes and reads back, for a field of
/// type T. 64-bit unsigned integers (seeds, sizes) carry a ULL suffix.
template <typename T>
struct Codec {
  static constexpr FieldKind kKind =
      std::is_same_v<T, bool> ? FieldKind::kBool
      : std::is_floating_point_v<T> ? FieldKind::kReal
      : std::is_enum_v<T> ? FieldKind::kEnum
                          : FieldKind::kInt;
  static constexpr bool kUll = std::is_unsigned_v<T> && sizeof(T) == 8;

  static double get(T value) {
    if constexpr (kKind == FieldKind::kEnum) return static_cast<int>(value);
    else return static_cast<double>(value);
  }
  static std::string literal(T value) {
    if constexpr (kKind == FieldKind::kReal) {
      return real_literal(value);
    } else if constexpr (kKind == FieldKind::kBool) {
      return value ? "true" : "false";
    } else if constexpr (kKind == FieldKind::kEnum) {
      const auto index = static_cast<std::size_t>(value);
      return index < enum_names(T{}).size() ? enum_names(T{})[index].cpp : "?";
    } else {
      return std::to_string(value) + (kUll ? "ULL" : "");
    }
  }
  static bool parse(std::string_view text, T& out) {
    if constexpr (kKind == FieldKind::kBool) {
      out = text == "true";
      return out || text == "false";
    } else if constexpr (kKind == FieldKind::kEnum) {
      const auto names = enum_names(T{});
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (text != names[i].cpp) continue;
        out = static_cast<T>(i);
        return true;
      }
      return false;
    } else {
      if constexpr (kKind == FieldKind::kReal) {
        const bool negative = text.starts_with('-');
        if (text.substr(negative) == kInfLiteral) {
          out = negative ? -kInf : kInf;
          return true;
        }
      }
      if (kUll && text.ends_with("ULL")) text.remove_suffix(3);
      const char* last = text.data() + text.size();
      const auto [end, error] = std::from_chars(text.data(), last, out);
      return !text.empty() && error == std::errc() && end == last;
    }
  }
};

/// Builds a row from an accessor `[](auto& c) -> auto& { return c.<path>; }`;
/// the FIELD macro below spells the path once for both.
template <typename Access>
constexpr ConfigField row(const char* path, Access, FieldRange range = kAny,
                          const char* gate = nullptr, CliFlag cli = {}) {
  using T = std::remove_cvref_t<decltype(Access{}(std::declval<SimulationConfig&>()))>;
  using C = Codec<T>;
  std::span<const EnumName> enumerators;
  if constexpr (C::kKind == FieldKind::kEnum) {
    enumerators = enum_names(T{});
    range = {0.0, static_cast<double>(enumerators.size() - 1)};
  }
  return ConfigField{
      path, C::kKind, range, gate, cli, enumerators,
      [](const SimulationConfig& c) { return C::get(Access{}(c)); },
      [](const SimulationConfig& c) { return C::literal(Access{}(c)); },
      [](SimulationConfig& c, std::string_view text) {
        T value{};
        if (!C::parse(text, value)) return false;
        Access{}(c) = value;
        return true;
      }};
}

#define FIELD(member) #member, [](auto& c) -> auto& { return c.member; }

using enum CliZero;

// Flag units, in the field's unit (seconds, megabits).
constexpr double kNone = 1.0;
constexpr double kSeconds = 1.0;
constexpr double kMinutes = minutes(1.0);
constexpr double kHours = hours(1.0);
constexpr double kGigabytes = gigabytes(1.0);

/// A command-line flag; \p fallback nullptr keeps the --system preset's value.
constexpr CliFlag flag(const char* name, const char* fallback, const char* help,
                       double unit = kNone, CliZero zero = kValue) {
  return {name, fallback, unit, zero, help};
}

// The table. Its order is the order of `--help` and of to_gtest_case.
constexpr ConfigField kFields[] = {
    // System (paper Figure 3).
    row(FIELD(system.num_servers), at_least(1), nullptr,
        flag("servers", nullptr, "number of servers")),
    row(FIELD(system.server_bandwidth), kPositive, nullptr,
        flag("bandwidth", nullptr, "per-server bandwidth, Mb/s")),
    row(FIELD(system.server_storage), kNonNegative, nullptr,
        flag("storage-gb", nullptr, "per-server disk, GB", kGigabytes)),
    row(FIELD(system.video_min_duration), kPositive, nullptr,
        flag("min-minutes", nullptr, "shortest video, minutes", kMinutes)),
    row(FIELD(system.video_max_duration), kPositive, nullptr,
        flag("max-minutes", nullptr, "longest video, minutes", kMinutes)),
    row(FIELD(system.num_videos), at_least(1), nullptr,
        flag("videos", nullptr, "catalog size")),
    row(FIELD(system.avg_copies), at_least(1), nullptr,
        flag("copies", nullptr, "average replicas per video")),
    row(FIELD(system.view_bandwidth), kPositive, nullptr,
        flag("view-bw", nullptr, "playback rate, Mb/s")),
    // Client.
    row(FIELD(client.staging_fraction), kNonNegative, nullptr,
        flag("staging", "0.2", "client staging buffer (fraction of avg video)")),
    row(FIELD(client.receive_bandwidth), FieldRange{0.0, kInf}, nullptr,
        flag("receive-bw", "30", "client receive cap, Mb/s (0 = unlimited)", kNone,
             kUnlimited)),
    // Failure-domain topology (server -> rack -> zone tree).
    row(FIELD(topology.enabled)),
    row(FIELD(topology.racks), at_least(1), "topology.enabled",
        flag("racks", "0", "failure-domain racks (0 = no topology)", kNone, kOff)),
    row(FIELD(topology.zones), at_least(1), "topology.enabled",
        flag("zones", "1", "failure-domain zones")),
    // Policies.
    row(FIELD(placement.kind), kAny, nullptr, flag("placement", "even", "placement")),
    row(FIELD(placement.partial_head_fraction), FieldRange{0.0, 1.0, true, false}),
    row(FIELD(placement.partial_tail_shift), FieldRange{0.0, 1.0, false, true}),
    row(FIELD(admission.assignment), kAny, nullptr,
        flag("assignment", "least-loaded", "server choice")),
    row(FIELD(admission.migration.enabled), kAny, nullptr,
        flag("migration", "true", "dynamic request migration on/off")),
    row(FIELD(admission.migration.max_chain_length), at_least(0), nullptr,
        flag("chain", "1", "migration chain length")),
    row(FIELD(admission.migration.max_hops_per_request), at_least(-1), nullptr,
        flag("hops", "1", "max hops per request (-1 = unlimited)")),
    row(FIELD(admission.migration.victim), kAny, nullptr,
        flag("victim", "first-fit", "stream to migrate")),
    row(FIELD(admission.migration.max_search_nodes), at_least(1)),
    row(FIELD(admission.migration.switch_latency), kNonNegative, nullptr,
        flag("switch-latency", "0", "migration stream pause, seconds", kSeconds)),
    row(FIELD(admission.buffer_aware), kAny, nullptr,
        flag("buffer-aware", "false",
             "aggressive admission (needs --scheduler intermittent)")),
    row(FIELD(admission.buffer_aware_horizon), kPositive),
    row(FIELD(scheduler), kAny, nullptr, flag("scheduler", "eftf", "scheduler")),
    row(FIELD(intermittent_safety_cover), kNonNegative),
    // Faults. A "0 = off" flag switches on its gate and the gates above it.
    row(FIELD(failure.enabled)),
    row(FIELD(failure.mean_time_between_failures), kPositive, "failure.enabled",
        flag("mtbf-hours", "0", "server MTBF in hours (0 = no failures)", kHours, kOff)),
    row(FIELD(failure.mean_time_to_repair), kPositive, "failure.enabled",
        flag("mttr-hours", "1", "server MTTR in hours (needs --mtbf-hours)", kHours)),
    row(FIELD(failure.recover_via_migration)),
    row(FIELD(failure.min_dwell), kNonNegative, "failure.enabled",
        flag("min-dwell", "0", "flap guard: min seconds between fault flips", kSeconds)),
    row(FIELD(failure.brownout.enabled), kAny, "failure.enabled"),
    row(FIELD(failure.brownout.mean_time_between), kPositive, "failure.brownout.enabled",
        flag("brownout-hours", "0",
             "mean hours between partial capacity losses (0 = off)", kHours, kOff)),
    row(FIELD(failure.brownout.mean_duration), kPositive, "failure.brownout.enabled",
        flag("brownout-minutes", "10", "mean brownout length, minutes", kMinutes)),
    row(FIELD(failure.brownout.capacity_factor), kOpenUnit, "failure.brownout.enabled",
        flag("brownout-factor", "0.5", "surviving capacity fraction")),
    row(FIELD(failure.correlated.enabled), kAny, "failure.enabled"),
    row(FIELD(failure.correlated.group_size), at_least(1), "failure.correlated.enabled",
        flag("correlated-group", "0", "servers per correlated failure group (0 = off)",
             kNone, kOff)),
    row(FIELD(failure.correlated.mean_time_between), kPositive,
        "failure.correlated.enabled",
        flag("correlated-hours", "500", "mean hours between group outages", kHours)),
    row(FIELD(failure.correlated.mean_duration), kPositive, "failure.correlated.enabled"),
    row(FIELD(failure.domains.rack_outage.enabled), kAny, "failure.enabled"),
    row(FIELD(failure.domains.rack_outage.mean_time_between), kPositive,
        "failure.domains.rack_outage.enabled",
        flag("rack-outage-hours", "0",
             "mean hours between whole-rack outages, per rack (0 = off)", kHours, kOff)),
    row(FIELD(failure.domains.rack_outage.mean_duration), kPositive,
        "failure.domains.rack_outage.enabled",
        flag("rack-outage-minutes", "30", "mean rack outage length, minutes", kMinutes)),
    row(FIELD(failure.domains.zone_brownout.enabled), kAny, "failure.enabled"),
    row(FIELD(failure.domains.zone_brownout.mean_time_between), kPositive,
        "failure.domains.zone_brownout.enabled",
        flag("zone-brownout-hours", "0",
             "mean hours between zone-wide brownouts, per zone (0 = off)", kHours, kOff)),
    row(FIELD(failure.domains.zone_brownout.mean_duration), kPositive,
        "failure.domains.zone_brownout.enabled",
        flag("zone-brownout-minutes", "15", "mean zone brownout length, minutes",
             kMinutes)),
    row(FIELD(failure.domains.zone_brownout.capacity_factor), kOpenUnit,
        "failure.domains.zone_brownout.enabled",
        flag("zone-brownout-factor", "0.5",
             "surviving capacity fraction during a zone brownout")),
    row(FIELD(failure.domains.partition.enabled), kAny, "failure.enabled"),
    row(FIELD(failure.domains.partition.mean_time_between), kPositive,
        "failure.domains.partition.enabled",
        flag("partition-hours", "0",
             "mean hours between rack network partitions, per rack (0 = off; servers "
             "stay up but unreachable)", kHours, kOff)),
    row(FIELD(failure.domains.partition.mean_duration), kPositive,
        "failure.domains.partition.enabled",
        flag("partition-minutes", "5", "mean partition length, minutes", kMinutes)),
    row(FIELD(failure.retry.enabled), kAny, nullptr,
        flag("retry", "false", "retry queue: re-admit sheds/orphans/rejects")),
    row(FIELD(failure.retry.max_queue), at_least(1), "failure.retry.enabled",
        flag("retry-queue", "64", "retry queue capacity")),
    row(FIELD(failure.retry.max_attempts), at_least(1), "failure.retry.enabled",
        flag("retry-attempts", "6", "retry attempts before abandoning")),
    row(FIELD(failure.retry.backoff_base), kPositive, "failure.retry.enabled",
        flag("retry-backoff", "5", "base retry backoff, seconds (doubles)", kSeconds)),
    row(FIELD(failure.retry.backoff_cap), kPositive, "failure.retry.enabled"),
    row(FIELD(failure.repair.enabled)),
    row(FIELD(failure.repair.down_threshold), kPositive, "failure.repair.enabled",
        flag("repair-hours", "0", "re-replicate servers down longer than this (0 = off)",
             kHours, kOff)),
    row(FIELD(failure.glitch_dedupe_window), kNonNegative, nullptr,
        flag("glitch-dedupe", "1",
             "per-stream glitch dedupe window, seconds (0 = count every underflow as "
             "its own interruption)", kSeconds)),
    // Extensions.
    row(FIELD(drift.enabled)),
    row(FIELD(drift.period), kPositive, "drift.enabled",
        flag("drift-hours", "0", "popularity drift period (0 = static)", kHours, kOff)),
    row(FIELD(drift.step)),
    row(FIELD(replication.enabled), kAny, nullptr,
        flag("replication", "false", "dynamic replication on rejection bursts")),
    row(FIELD(replication.rejection_threshold), at_least(1), "replication.enabled"),
    row(FIELD(replication.window), kPositive, "replication.enabled"),
    row(FIELD(replication.transfer_bandwidth), kPositive, "replication.enabled"),
    row(FIELD(replication.max_concurrent), at_least(1), "replication.enabled"),
    row(FIELD(replication.max_total)),
    row(FIELD(replication.allow_tertiary_source)),
    row(FIELD(interactivity.enabled)),
    row(FIELD(interactivity.pauses_per_hour), kPositive, "interactivity.enabled",
        flag("pauses-per-hour", "0", "viewer pause rate (0 = off)", kNone, kOff)),
    row(FIELD(interactivity.mean_pause_duration), kPositive, "interactivity.enabled",
        flag("mean-pause", "120", "mean pause length, seconds", kSeconds)),
    // Workload and run.
    row(FIELD(zipf_theta), FieldRange{-1.5, 1.0}, nullptr,
        flag("theta", "0.271", "Zipf skew (1 uniform .. -1.5 extreme)")),
    row(FIELD(load_factor), kPositive, nullptr,
        flag("load", "1.0", "offered load as a fraction of capacity")),
    row(FIELD(duration), kPositive, nullptr,
        flag("hours", "60", "simulated hours", kHours)),
    row(FIELD(warmup), kNonNegative, nullptr,
        flag("warmup-hours", "5", "discarded warmup", kHours)),
    row(FIELD(seed), kAny, nullptr, flag("seed", "42", "master seed")),
    row(FIELD(shards), at_least(1), nullptr,
        flag("shards", "1",
             "server-group shards draining predicted events in parallel (1 = classic "
             "single-queue engine; fixed shard count is bit-reproducible at any thread "
             "count)")),
    row(FIELD(shard_threads), at_least(0), nullptr,
        flag("shard-threads", "0",
             "drain worker threads for --shards > 1 (0 = all cores; thread count never "
             "changes results)")),
    row(FIELD(paranoid)),
    // Observability.
    row(FIELD(trace.enabled)),
    row(FIELD(trace.categories)),
    row(FIELD(trace.capacity), at_least(1), "trace.enabled"),
    row(FIELD(probe.enabled)),
    row(FIELD(probe.period), kPositive, "probe.enabled",
        flag("probe-period", "60", "probe sampling period, seconds", kSeconds)),
};

#undef FIELD

}  // namespace

std::string FieldRange::describe(double scale) const {
  std::ostringstream out;
  out << (lo_open ? '(' : '[') << lo / scale << ", " << hi / scale
      << (hi_open ? ')' : ']');
  return out.str();
}

std::span<const ConfigField> config_fields() { return kFields; }

const ConfigField* find_config_field(std::string_view path) {
  for (const ConfigField& field : kFields) {
    if (path == field.path) return &field;
  }
  return nullptr;
}

const ConfigField* gate_of(const ConfigField& field) {
  return field.gate == nullptr ? nullptr : find_config_field(field.gate);
}

bool gate_open(const ConfigField& field, const SimulationConfig& config) {
  for (const ConfigField* gate = gate_of(field); gate != nullptr; gate = gate_of(*gate)) {
    if (gate->get(config) == 0.0) return false;
  }
  return true;
}

std::string real_literal(double value) {
  if (std::isinf(value)) {
    return (value > 0 ? "" : "-") + std::string(kInfLiteral);
  }
  std::ostringstream out;
  out << std::setprecision(17) << value;
  std::string text = out.str();
  // Bare integers would otherwise assign e.g. int-literal 600 to a double
  // field — harmless, but ".0" makes the generated case read as intended.
  if (text.find_first_of(".eEn") == std::string::npos) text += ".0";
  return text;
}

}  // namespace vodsim
