#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace fnr {

double percentile_sorted(const std::vector<double>& sorted, double q) {
  FNR_CHECK(!sorted.empty());
  FNR_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = percentile_sorted(values, 0.5);
  s.p90 = percentile_sorted(values, 0.9);
  s.p95 = percentile_sorted(values, 0.95);
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(sq / static_cast<double>(values.size() - 1))
                 : 0.0;
  return s;
}

PowerLawFit fit_power_law(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  FNR_CHECK(xs.size() == ys.size());
  FNR_CHECK_MSG(xs.size() >= kMinFitPoints,
                "power-law fit needs at least " << kMinFitPoints
                                                << " points, got "
                                                << xs.size());
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    FNR_CHECK_MSG(xs[i] > 0 && ys[i] > 0, "power-law fit needs positive data");
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  PowerLawFit fit;
  const double denom = n * sxx - sx * sx;
  FNR_CHECK_MSG(std::abs(denom) > 1e-12, "degenerate x values in fit");
  fit.exponent = (n * sxy - sx * sy) / denom;
  const double intercept = (sy - fit.exponent * sx) / n;
  fit.prefactor = std::exp(intercept);

  // R² on log-log scale.
  const double mean_ly = sy / n;
  double ss_tot = 0, ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ly = std::log(ys[i]);
    const double pred = intercept + fit.exponent * std::log(xs[i]);
    ss_tot += (ly - mean_ly) * (ly - mean_ly);
    ss_res += (ly - pred) * (ly - pred);
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace fnr
