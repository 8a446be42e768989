#pragma once

/// \file enum_names.h
/// \brief One name list per policy enum, shared by to_string, the
/// *_from_string parsers, the command line and generated C++.

#include <span>
#include <stdexcept>
#include <string>

namespace vodsim {

/// One enumerator: its command-line name and its qualified C++ name. Each
/// enum's list is indexed by the underlying value and found through
/// `enum_names(E)`.
struct EnumName {
  const char* cli;
  const char* cpp;
};

/// names[value].cli, or "?" for a value outside the list.
template <typename E>
std::string enum_to_string(std::span<const EnumName> names, E value) {
  const auto index = static_cast<std::size_t>(value);
  return index < names.size() ? names[index].cli : "?";
}

/// The enumerator named \p text; throws std::invalid_argument
/// ("unknown <what>: <text>") when no name matches.
template <typename E>
E enum_from_string(std::span<const EnumName> names, const std::string& text,
                   const char* what) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (text == names[i].cli) return static_cast<E>(i);
  }
  throw std::invalid_argument(std::string("unknown ") + what + ": " + text);
}

}  // namespace vodsim
