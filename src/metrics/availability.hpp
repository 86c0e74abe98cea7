// Availability bookkeeping: given a request-rate series, estimate outage
// windows (rate collapsed) and compute availability over an interval.
// Used by reliability-oriented tests.
#pragma once

#include <vector>

#include "metrics/series.hpp"

namespace mams::metrics {

struct OutageWindow {
  std::size_t start_bucket = 0;
  std::size_t end_bucket = 0;  ///< exclusive
  std::size_t Length() const { return end_bucket - start_bucket; }
};

/// Finds maximal runs of buckets whose rate falls below `threshold_frac`
/// of the series' steady rate (median of non-zero buckets).
inline std::vector<OutageWindow> FindOutages(const RateSeries& rate,
                                             double threshold_frac = 0.1) {
  std::vector<double> rates;
  for (std::size_t b = 0; b < rate.bucket_count(); ++b) {
    const double r = rate.RatePerSecond(b);
    if (r > 0) rates.push_back(r);
  }
  if (rates.empty()) return {};
  std::sort(rates.begin(), rates.end());
  const double steady = rates[rates.size() / 2];
  const double threshold = steady * threshold_frac;

  std::vector<OutageWindow> outages;
  bool in_outage = false;
  OutageWindow current;
  for (std::size_t b = 0; b < rate.bucket_count(); ++b) {
    const bool down = rate.RatePerSecond(b) < threshold;
    if (down && !in_outage) {
      in_outage = true;
      current.start_bucket = b;
    } else if (!down && in_outage) {
      in_outage = false;
      current.end_bucket = b;
      outages.push_back(current);
    }
  }
  if (in_outage) {
    current.end_bucket = rate.bucket_count();
    outages.push_back(current);
  }
  return outages;
}

/// Fraction of buckets NOT inside an outage window.
inline double Availability(const RateSeries& rate,
                           double threshold_frac = 0.1) {
  if (rate.bucket_count() == 0) return 1.0;
  std::size_t down = 0;
  for (const auto& o : FindOutages(rate, threshold_frac)) down += o.Length();
  return 1.0 - static_cast<double>(down) /
                   static_cast<double>(rate.bucket_count());
}

}  // namespace mams::metrics
