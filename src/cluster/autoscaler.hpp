// cluster::Autoscaler — per-group elastic-standby controller.
//
// The paper sizes each replica group statically (MAMS-xAyS). This
// controller makes y elastic: it watches per-member pressure signals —
// read throughput against per-standby capacity and parked/bounced
// standby-read rates — and grows the group ahead of demand (promote a
// junior, restart a retired member, or admit a brand-new node) or shrinks
// it when standbys sit idle.
//
// Every action rides the existing membership machinery: scale-up goes
// junior -> renewing -> standby (the ordinary catch-up path, so
// linearizability is untouched), scale-down retires only a *drained*
// standby (no parked reads, caught up to the committed prefix) via
// MdsServer::Retire. The controller never touches a group whose
// coordination view has no settled active — elasticity must not race a
// failover.
//
// Stability knobs: a threshold must be breached for `breach_ticks`
// consecutive evaluations before any action (anti-flap damping), each
// action starts a per-group cool-down, and at most one join is in flight
// per group at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cfs.hpp"

namespace mams::cluster {

struct AutoscalerOptions {
  SimTime evaluate_period = 500 * kMillisecond;

  int min_standbys = 1;  ///< never retire below this many alive standbys
  int max_standbys = 4;  ///< never grow past this many alive standbys

  /// Read throughput (ops/s, active + standbys combined) one standby is
  /// expected to absorb; the denominator of the utilization signal.
  double reads_per_standby_capacity = 5000.0;

  double scale_up_utilization = 0.75;    ///< grow above this
  double scale_down_utilization = 0.25;  ///< shrink below this

  /// Parked + bounced standby reads per second that count as pressure even
  /// when raw utilization looks fine (reads are queueing, not flowing).
  double park_bounce_rate_up = 10.0;

  /// Consecutive breached evaluations required before acting.
  int breach_ticks = 3;

  /// Quiet period after any action on a group (hysteresis).
  SimTime cooldown = 5 * kSecond;
};

class Autoscaler {
 public:
  /// Aggregate controller bookkeeping, exposed for tests and reports.
  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    std::uint64_t skipped_no_active = 0;    ///< group was mid-failover
    std::uint64_t skipped_not_drained = 0;  ///< wanted down, nothing drained
    std::uint64_t skipped_cooldown = 0;     ///< breach during quiet period
    std::uint64_t skipped_join_pending = 0; ///< previous admit still syncing
  };

  Autoscaler(CfsCluster& cfs, AutoscalerOptions options = {});
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  /// Starts the periodic evaluation loop (idempotent).
  void Start();
  /// Stops evaluating; in-flight membership transitions finish on their own.
  void Stop();
  bool running() const noexcept { return running_; }

  /// One synchronous evaluation of every group, outside the timer loop.
  /// Tests drive the controller deterministically through this.
  void TickNow() { Evaluate(); }

  const Stats& stats() const noexcept { return stats_; }
  const AutoscalerOptions& options() const noexcept { return options_; }

  /// Last computed utilization for group g (also published as the gauge
  /// `autoscaler.g<g>.utilization`).
  double utilization(GroupId g) const { return groups_[g].utilization; }

 private:
  struct GroupState {
    // Previous tick's per-group counter sums (deltas -> rates).
    std::uint64_t prev_reads = 0;
    std::uint64_t prev_parked = 0;
    std::uint64_t prev_bounced = 0;
    bool primed = false;  ///< first tick only records a baseline
    int up_breach = 0;
    int down_breach = 0;
    SimTime last_action = 0;
    bool acted_once = false;
    NodeId pending_join = kInvalidNode;  ///< admitted, not yet standby
    double utilization = 0.0;
    obs::Counter* scale_ups = nullptr;
    obs::Counter* scale_downs = nullptr;
    obs::Gauge* util_gauge = nullptr;
    obs::Gauge* standby_gauge = nullptr;
  };

  void Schedule();
  void Evaluate();
  void EvaluateGroup(GroupId g);

  CfsCluster& cfs_;
  AutoscalerOptions options_;
  sim::Simulator& sim_;
  std::vector<GroupState> groups_;
  Stats stats_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  ///< invalidates scheduled ticks on Stop
  /// Captured by scheduled ticks; flipped false in the destructor so a
  /// timer that outlives the controller is a no-op, not a dangling call.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace mams::cluster
