// Key popularity over directories for the load engine. The
// metadata-server survey catalogs skewed, hotspot-heavy namespace access
// as the norm; the picker draws exact Zipfian ranks via a precomputed
// inverse CDF (rank k drawn with probability ∝ 1/(k+1)^theta), one
// binary search per sample and one table per picker.
//
// A picker is deterministic given the caller's Rng and is shared by all
// sessions of an engine — per-session state stays POD-sized.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace mams::workload {

struct KeyDistSpec {
  double zipf_theta = 0.99;  ///< skew exponent (YCSB-style default)

  static KeyDistSpec Zipf(double theta) { return {theta}; }
};

class KeyPicker {
 public:
  KeyPicker(KeyDistSpec spec, std::uint32_t n) : n_(n ? n : 1) {
    // Exact inverse CDF: cdf_[k] = P(rank <= k). One-time O(n) build,
    // O(log n) per sample.
    cdf_.resize(n_);
    double sum = 0.0;
    for (std::uint32_t k = 0; k < n_; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), spec.zipf_theta);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  /// Draws a directory index in [0, n).
  std::uint32_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::uint32_t>(it - cdf_.begin());
    return rank < n_ ? rank : n_ - 1;
  }

 private:
  std::uint32_t n_;
  std::vector<double> cdf_;
};

}  // namespace mams::workload
