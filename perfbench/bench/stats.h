#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Percentile q in [0, 1] with linear interpolation between closest ranks.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// |a - b| within rtol of the larger magnitude; false for non-finite values.
inline bool close_rel(double a, double b, double rtol) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b));
}

/// Element-wise match within rtol of the reference's max magnitude.
inline bool close_vec(const std::vector<double>& got, const std::vector<double>& want,
                      double rtol) {
  if (got.size() != want.size()) return false;
  double scale = 0;
  for (double w : want) scale = std::max(scale, std::fabs(w));
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i]) || std::fabs(got[i] - want[i]) > rtol * scale) return false;
  }
  return true;
}

}  // namespace perfbench
