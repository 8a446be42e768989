#pragma once

/// \file config_schema.h
/// \brief The SimulationConfig field table: one row per field.
///
/// A row names a field by its path ("failure.brownout.capacity_factor")
/// and says what kind of value it holds, the range a valid value lies in,
/// and the `enabled` flag that gates it. Rows for fields on the command
/// line also carry the flag name, unit and help text. Three consumers
/// iterate the rows instead of spelling the fields out:
/// SimulationConfig::validate() checks every row whose gate is open,
/// vodsim_cli registers, parses and range-checks its flags, and the
/// fuzzer's to_gtest_case renders one assignment per row.

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "vodsim/util/enum_names.h"

namespace vodsim {

struct SimulationConfig;

enum class FieldKind { kInt, kReal, kBool, kEnum };

/// An interval of valid values; NaN is never inside. An open infinite end
/// excludes infinity, so `(0, inf)` means "positive and finite".
struct FieldRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  constexpr bool contains(double value) const {
    return (lo_open ? value > lo : value >= lo) &&
           (hi_open ? value < hi : value <= hi);
  }
  /// "(0, 1)", "[1, inf)", ... with both ends divided by \p scale
  /// (a flag's unit size), for messages and `--help`.
  std::string describe(double scale = 1.0) const;
};

/// How a command-line value of 0 is read.
enum class CliZero {
  kValue,      ///< an ordinary value
  kOff,        ///< leaves the row's gate closed; any other value opens it
  kUnlimited,  ///< +infinity
};

/// The command-line side of a row.
struct CliFlag {
  const char* name = nullptr;      ///< without "--"; nullptr = not a flag
  const char* fallback = nullptr;  ///< default text; nullptr = --system's preset
  double unit = 1.0;  ///< one flag unit in the field's unit: 60 for minutes
  CliZero zero = CliZero::kValue;
  const char* help = "";
};

struct ConfigField {
  const char* path;   ///< member path below SimulationConfig
  FieldKind kind;
  FieldRange range;   ///< kEnum rows: the enumerator indices
  const char* gate;   ///< path of the bool row gating `range`, or nullptr
  CliFlag cli;
  std::span<const EnumName> enumerators;  ///< kEnum: by underlying value

  // Access generated from the field's C++ type.
  double (*get)(const SimulationConfig&);          ///< bool 0/1, enum index
  std::string (*literal)(const SimulationConfig&); ///< C++ initializer text
  /// Inverse of `literal` (integers also without a suffix). Returns false
  /// on malformed text or a value the field's type cannot hold.
  bool (*parse)(SimulationConfig&, std::string_view);
};

/// Every SimulationConfig field except system.name, the heterogeneity
/// profiles and scripted_faults (lists, checked by validate() directly).
std::span<const ConfigField> config_fields();

/// The row for \p path, or nullptr.
const ConfigField* find_config_field(std::string_view path);

/// The row of \p field's gate, or nullptr when it has none.
const ConfigField* gate_of(const ConfigField& field);

/// True when \p field's gate and all of the gate's own gates are on.
bool gate_open(const ConfigField& field, const SimulationConfig& config);

/// Round-trippable C++ literal for a double: %.17g with a ".0" on whole
/// numbers, or `std::numeric_limits<double>::infinity()`.
std::string real_literal(double value);

}  // namespace vodsim
