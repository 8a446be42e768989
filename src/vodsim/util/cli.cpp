#include "vodsim/util/cli.h"

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace vodsim {

namespace {

/// True when \p text is exactly one number (strtod consumes all of it).
bool is_number(const std::string& text) {
  if (text.empty()) return false;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return *end == '\0';
}

std::string invalid_value(const std::string& name, const std::string& value) {
  return "invalid value for --" + name + ": '" + value + "'";
}

}  // namespace

CliParser::CliParser(std::string program_name, std::string description)
    : program_name_(std::move(program_name)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name, const std::string& default_value,
                         const std::string& help) {
  if (flags_.emplace(name, Flag{default_value, help, false}).second) {
    order_.push_back(name);
  }
}

void CliParser::add_bool_flag(const std::string& name, const std::string& help) {
  if (flags_.emplace(name, Flag{"false", help, true}).second) {
    order_.push_back(name);
  }
}

bool CliParser::parse(int argc, const char* const* argv) {
  values_.clear();
  error_.clear();
  const auto fail = [this](std::string message) {
    error_ = std::move(message);
    std::cerr << "error: " << error_ << "\n\n";
    print_usage(std::cerr);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) return fail("unexpected positional argument: " + arg);
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) return fail("unknown flag: --" + name);
    if (it->second.is_bool && !has_value) {
      value = "true";
    } else if (!has_value) {
      if (i + 1 >= argc) return fail("flag --" + name + " requires a value");
      value = argv[++i];
    }
    // A flag with a numeric default names a numeric quantity: "4x" or
    // "abc" is a typo, not a value to read a prefix of.
    if (is_number(it->second.default_value) && !is_number(value)) {
      return fail(invalid_value(name, value));
    }
    values_[name] = value;
  }
  return true;
}

std::string CliParser::get_string(const std::string& name) const {
  const auto value = values_.find(name);
  if (value != values_.end()) return value->second;
  const auto flag = flags_.find(name);
  if (flag == flags_.end()) throw std::logic_error("unregistered flag: " + name);
  return flag->second.default_value;
}

long CliParser::get_long(const std::string& name) const {
  const std::string value = get_string(name);
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') {
    // parse() cannot tell integer flags from real-valued ones, so a
    // fractional count ("--trials 2.9") is caught here, where the caller
    // asks for an integer.
    std::cerr << "error: " << invalid_value(name, value)
              << " (expected an integer)\n";
    std::exit(2);
  }
  return parsed;
}

double CliParser::get_double(const std::string& name) const {
  return std::strtod(get_string(name).c_str(), nullptr);
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  return v == "true" || v == "1" || v == "yes";
}

void CliParser::print_usage(std::ostream& out) const {
  out << program_name_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    out << "  --" << name;
    if (!flag.is_bool) out << " <value>";
    out << "  (default: " << flag.default_value << ")\n      " << flag.help << "\n";
  }
  out << "  --help\n      Show this message.\n";
}

}  // namespace vodsim
