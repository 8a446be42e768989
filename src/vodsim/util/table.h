#pragma once

/// \file table.h
/// \brief ASCII table printer for bench/example output.
///
/// Every figure/table bench prints its series through this so the output is
/// uniform and easy to diff against EXPERIMENTS.md.

#include <ostream>
#include <string>
#include <vector>

namespace vodsim {

/// Column alignment for TablePrinter.
enum class Align { kLeft, kRight };

/// Collects rows and prints a box-drawn ASCII table with padded columns.
class TablePrinter {
 public:
  /// \param headers column titles; column count is fixed by this.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Sets alignment for one column (default: left for col 0, right others).
  void set_align(std::size_t column, Align align);

  /// Appends one row; must have exactly as many fields as headers.
  void add_row(std::vector<std::string> row);

  /// Convenience numeric formatting helpers.
  static std::string num(double value, int precision = 4);
  static std::string pct(double fraction, int precision = 1);

  /// Writes the table. A separator line is drawn under the header.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vodsim
