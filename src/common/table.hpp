// Plain-text table rendering for benchmark/report output: every figure
// reproduction prints its series as an aligned table, the way the paper's
// plots enumerate bars.
#pragma once

#include <string>
#include <vector>

namespace musa {

/// Column-aligned ASCII table. Cells are strings; numeric helpers format
/// with fixed precision. Rendered with a header rule, e.g.:
///
///   app     | 128-bit | 256-bit | 512-bit
///   --------+---------+---------+--------
///   hydro   |    1.00 |    1.12 |    1.21
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Starts a new row; subsequent add_*() calls fill it left to right.
  TextTable& row();
  TextTable& cell(std::string text);
  TextTable& cell(double value, int precision = 2);
  TextTable& cell(long long value);

  std::string str() const;

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace musa
