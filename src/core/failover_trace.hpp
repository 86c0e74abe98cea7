// Instrumentation for Figure 7: per-failover timestamps of each stage on
// the elected standby. The bench computes stage proportions from these.
//
// This is a thin adapter over the obs subsystem: the six upgrade steps and
// the election are recorded live as obs::TraceRecorder spans by Upgrade;
// this log keeps the aggregate (start/granted/completed) timestamps the
// fig7 bench consumes. One log per cluster/scenario — there is no process
// singleton, so repeated bench trials and parallel test shards cannot see
// each other's traces.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace mams::core {

struct FailoverTrace {
  GroupId group = 0;
  NodeId elected = kInvalidNode;
  SimTime failure_detected = -1;   ///< watch event indicating a dead active
  SimTime election_started = -1;   ///< first lock bid sent
  SimTime lock_granted = -1;       ///< election finished
  SimTime switch_completed = -1;   ///< 6-step upgrade done, serving again

  SimTime ElectionTime() const { return lock_granted - election_started; }
  SimTime SwitchTime() const { return switch_completed - lock_granted; }
  bool complete() const {
    return failure_detected >= 0 && election_started >= 0 &&
           lock_granted >= 0 && switch_completed >= 0;
  }
};

/// Per-cluster collector; benches reset it per trial via Clear().
class FailoverTraceLog {
 public:
  void Record(FailoverTrace trace) { traces_.push_back(trace); }
  const std::vector<FailoverTrace>& traces() const noexcept { return traces_; }
  void Clear() { traces_.clear(); }

 private:
  std::vector<FailoverTrace> traces_;
};

}  // namespace mams::core
