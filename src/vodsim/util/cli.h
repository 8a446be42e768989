#pragma once

/// \file cli.h
/// \brief Tiny command-line flag parser for examples and benches.
///
/// Supports `--name value`, `--name=value` and boolean `--name`. Unknown
/// flags are an error so typos surface immediately. Not a general-purpose
/// argv library — just enough for the example binaries.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vodsim {

/// Declarative flag set; define flags, then parse argv.
class CliParser {
 public:
  /// \param program_name used in the usage message.
  /// \param description one-line summary printed by `--help`.
  CliParser(std::string program_name, std::string description);

  /// Registers a flag with a default value and help text.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Registers a boolean flag (default false).
  void add_bool_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false on `--help` (after printing usage) or on an
  /// error (after printing it and the usage to stderr): an unknown flag, a
  /// missing value, or a value that is not a number for a flag whose
  /// default is one. Callers should then exit.
  bool parse(int argc, const char* const* argv);

  /// Accessors; flag must have been registered. get_long prints
  /// `invalid value for --<flag>: '<v>'` and exits with status 2 when the
  /// value is not an integer (e.g. "2.9"), matching a failed parse().
  std::string get_string(const std::string& name) const;
  long get_long(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Prints the usage/help text.
  void print_usage(std::ostream& out) const;

  /// Error text from the last failed parse() (empty on `--help`).
  const std::string& error() const { return error_; }

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    bool is_bool = false;
  };

  std::string program_name_;
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
  std::map<std::string, std::string> values_;
  std::string error_;
};

}  // namespace vodsim
