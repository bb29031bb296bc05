// Reference outputs recorded with the benchmark (see perfbench/README.md,
// "Output checks"): check values that do not depend on the seed, and the
// numbers the bench/table_* binaries print for the paper's three tables.

#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Equal up to a relative 1e-9 (values from different solver routes).
inline bool close_enough(double a, double b) {
  const double scale = std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= 1e-9 * scale;
}

/// Recorded value of formula `index` of check job `job`, if it is
/// seed-independent.
std::optional<double> check_reference(const std::string& job,
                                      std::size_t index);

/// The cells the bench/table_<table> binary prints, in printing order.
const std::vector<std::string>& table_reference(const std::string& table);

}  // namespace perfbench
