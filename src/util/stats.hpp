// Summary statistics for experiment repetitions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fnr {

/// Five-number-style summary of a sample of measurements.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Computes a Summary; an empty input yields an all-zero summary.
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Linear-interpolated percentile of a sorted sample, q in [0, 1].
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Accumulates measurements for one experimental cell and reports a Summary.
class SampleAccumulator {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] Summary summary() const { return summarize(values_); }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

/// Ordinary least squares fit of log(y) = a + b*log(x); reports the exponent
/// b and R². Used to verify asymptotic growth rates (e.g. rounds vs n).
/// Needs at least kMinFitPoints points: any two points fit exactly
/// (R² = 1), which says nothing about the growth rate.
inline constexpr std::size_t kMinFitPoints = 3;

struct PowerLawFit {
  double exponent = 0.0;
  double prefactor = 0.0;  // e^a
  double r_squared = 0.0;
};

[[nodiscard]] PowerLawFit fit_power_law(const std::vector<double>& xs,
                                        const std::vector<double>& ys);

}  // namespace fnr
