// Markdown / CSV table rendering for bench output.
//
// Every bench binary prints its experiment as a table whose rows mirror the
// series defined in DESIGN.md §4. Cells are strings; numeric helpers format
// consistently so tables diff cleanly across runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fnr {

/// Formats a double with `digits` significant decimals, trimming noise.
[[nodiscard]] std::string format_double(double value, int digits = 2);

/// A simple column-aligned table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds one row; its arity must match the header.
  void add_row(std::vector<std::string> cells);

  /// GitHub-flavoured markdown rendering.
  [[nodiscard]] std::string to_markdown() const;

  /// RFC-4180-ish CSV rendering (no quoting needed for our cell content).
  [[nodiscard]] std::string to_csv() const;

  /// Prints the markdown rendering followed by a blank line.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Convenience builder for a row of heterogeneous cells.
class RowBuilder {
 public:
  RowBuilder& add(std::string cell);
  RowBuilder& add(const char* cell);
  RowBuilder& add(std::int64_t value);
  RowBuilder& add(std::uint64_t value);
  RowBuilder& add(double value, int digits = 2);
  /// Consumes the accumulated cells (the builder is spent afterwards).
  [[nodiscard]] std::vector<std::string> build() { return std::move(cells_); }

 private:
  std::vector<std::string> cells_;
};

}  // namespace fnr
