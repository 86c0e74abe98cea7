// Simple parametric disk model. The paper's pool nodes store namespace
// images and journal segments on local disks; what matters for the
// reproduction is that (a) sequential journal appends are cheap and mostly
// pipelined, and (b) reading an image costs time proportional to its size —
// Table I's x-axis. A seek charge + streaming-bandwidth model captures both.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mams::storage {

struct DiskParams {
  SimTime seek_latency = 4 * kMillisecond;        ///< random access charge
  double read_bytes_per_sec = 100.0e6;            ///< streaming read
  double write_bytes_per_sec = 90.0e6;            ///< streaming write
  SimTime sequential_latency = 120 * kMicrosecond;///< per-op charge when hot
};

class DiskModel {
 public:
  explicit DiskModel(DiskParams params = {}) : params_(params) {}

  /// Cost of appending `bytes` to a hot sequential stream (journal).
  SimTime AppendCost(std::uint64_t bytes) const noexcept {
    return params_.sequential_latency + Stream(bytes, params_.write_bytes_per_sec);
  }

  /// Cost of a random write of `bytes` (image checkpoint).
  SimTime WriteCost(std::uint64_t bytes) const noexcept {
    return params_.seek_latency + Stream(bytes, params_.write_bytes_per_sec);
  }

  /// Cost of a sequential read of `bytes` starting cold (every pool read).
  SimTime ReadCost(std::uint64_t bytes) const noexcept {
    return params_.seek_latency + Stream(bytes, params_.read_bytes_per_sec);
  }

  const DiskParams& params() const noexcept { return params_; }

 private:
  static SimTime Stream(std::uint64_t bytes, double rate) noexcept {
    return static_cast<SimTime>(static_cast<double>(bytes) / rate *
                                static_cast<double>(kSecond));
  }

  DiskParams params_;
};

}  // namespace mams::storage
