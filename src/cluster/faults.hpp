// Faults — the one fault-injection layer of a CFS cluster: the paper's
// Table II faults (lock loss, pulled cables, killed processes) and their
// gray cousins, for the checker, the scenario commands, the benches, the
// examples and the chaos tests. Timed faults undo themselves through
// epoch-guarded timers: a later cut or replug of the node, or Heal(),
// supersedes a pending restore, and the newest jitter burst wins, so a
// random schedule of overlapping faults composes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "core/mds_server.hpp"
#include "net/network.hpp"
#include "storage/pool_node.hpp"

namespace mams::cluster {

class CfsCluster;

class Faults {
 public:
  enum class Half { kIn, kOut };  ///< the two halves of a node's link

  Faults(CfsCluster& cfs, net::Network& net) : cfs_(cfs), net_(net) {}

  Faults(const Faults&) = delete;
  Faults& operator=(const Faults&) = delete;

  /// Pulls the node's cable (paper Test B): all its traffic drops, in-flight
  /// messages included. With a duration the cable goes back in after it.
  void Unplug(NodeId node, std::optional<SimTime> duration = std::nullopt) {
    const std::uint64_t epoch = ++cut_epoch_[node];
    net_.SetLinkUp(node, false);
    if (!duration) return;
    net_.sim().After(*duration, [this, node, epoch] {
      if (cut_epoch_[node] == epoch) Replug(node);
    });
  }

  void Replug(NodeId node) {
    ++cut_epoch_[node];
    net_.SetLinkUp(node, true);
  }

  /// kIn: the node hears nothing; kOut: it hears the world but cannot answer.
  void CutHalf(NodeId node, Half half) {
    halves_cut_.insert(node);
    half == Half::kOut ? net_.SetSendUp(node, false)
                       : net_.SetRecvUp(node, false);
  }

  void RestoreHalves(NodeId node) {
    halves_cut_.erase(node);
    net_.SetSendUp(node, true);
    net_.SetRecvUp(node, true);
  }

  /// Raises delivery jitter by `extra` for `duration` (a congested switch).
  void Jitter(SimTime extra, SimTime duration) {
    const std::uint64_t epoch = ++jitter_epoch_;
    net_.set_extra_jitter(extra);
    net_.sim().After(duration, [this, epoch] {
      if (jitter_epoch_ != epoch) return;
      ++jitter_epoch_;
      net_.set_extra_jitter(0);
    });
  }

  /// kill -9. The process stays down unless `restart_after` is given; a
  /// dead process is left alone (and no second restart is scheduled).
  void Crash(sim::Process& process,
             std::optional<SimTime> restart_after = std::nullopt) {
    if (!process.alive()) return;
    process.Crash();
    if (restart_after) process.Restart(*restart_after);
  }

  /// Boots a dead process now; a metadata server rejoins as a junior.
  void Restart(sim::Process& process) { process.Restart(); }

  /// Crashes group g's active; returns it, or null when there is none.
  core::MdsServer* CrashActive(
      GroupId g, std::optional<SimTime> restart_after = std::nullopt);

  /// Gray failure: multiplies the pool node's disk time by `factor`.
  void SlowDisk(storage::PoolNode& node, double factor) {
    slowed_.insert(&node);
    node.SetDiskSlowdown(factor);
  }

  /// Admin-releases group g's lock (paper Test A: the active loses it).
  void ForceLockRelease(GroupId g);

  /// Undoes the link, jitter and disk faults above (pending restores become
  /// no-ops), then boots every dead member, retirees included, group by
  /// group in Members order, and every dead pool node in index order.
  void Heal();

 private:
  CfsCluster& cfs_;
  net::Network& net_;
  std::map<NodeId, std::uint64_t> cut_epoch_;
  std::set<NodeId> halves_cut_;
  std::set<storage::PoolNode*> slowed_;
  std::uint64_t jitter_epoch_ = 0;
};

}  // namespace mams::cluster
