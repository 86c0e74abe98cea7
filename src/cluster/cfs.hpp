// CfsCluster — assembly of a complete CFS (Clover File System) deployment
// with the MAMS policy: a coordination ensemble, per-group replica sets of
// metadata servers, the shared storage pool (co-hosted with the metadata
// nodes, as in the paper: "the pool is built on existing active or backup
// servers"), data servers, and any number of clients.
//
// Naming: MAMS-<G>A<S>S means G replica groups ("actives") with S standby
// nodes each, matching the paper's notation (e.g. MAMS-3A3S, MAMS-1A3S).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/data_server.hpp"
#include "cluster/faults.hpp"
#include "coord/service.hpp"
#include "core/failover_trace.hpp"
#include "core/mds_server.hpp"
#include "net/network.hpp"
#include "obs/observability.hpp"
#include "storage/pool_node.hpp"

namespace mams::cluster {

struct CfsConfig {
  GroupId groups = 1;          ///< number of "actives" (replica groups)
  int standbys_per_group = 3;  ///< hot standbys per group
  int juniors_per_group = 0;   ///< cold backups booted as juniors
  int data_servers = 4;
  int clients = 4;
  core::MdsOptions mds;        ///< per-server tunables (group id overridden)
  coord::CoordOptions coord;
  FsClientOptions client;
};

class CfsCluster {
 public:
  static constexpr int kCoordReplicas = 3;
  static constexpr SimTime kBlockReportInterval = 3 * kSecond;
  /// Stagger between booting actives and backups (deployment realism).
  static constexpr SimTime kBackupBootDelay = 50 * kMillisecond;

  CfsCluster(net::Network& network, CfsConfig config)
      : network_(network),
        config_(config),
        coord_(network, kCoordReplicas, config.coord) {
    // The partition map is the one routing truth: every server and client
    // starts from the same seed unless the deployment brings its own.
    if (config_.mds.partition_map.empty()) {
      config_.mds.partition_map = shard::PartitionMap::Seed(config_.groups);
    }
    // Pool nodes first so the SSP addresses exist for every MDS. One pool
    // node per metadata node (co-hosted machine model).
    const int members_per_group =
        1 + config_.standbys_per_group + config_.juniors_per_group;
    for (GroupId g = 0; g < config_.groups; ++g) {
      for (int m = 0; m < members_per_group; ++m) {
        pool_.push_back(std::make_unique<storage::PoolNode>(
            network, "pool-g" + std::to_string(g) + "-" + std::to_string(m)));
        pool_ids_.push_back(pool_.back()->id());
      }
    }

    groups_.resize(config_.groups);
    for (GroupId g = 0; g < config_.groups; ++g) {
      core::MdsOptions opts = config_.mds;
      opts.group = g;
      for (int m = 0; m < members_per_group; ++m) {
        auto mds = std::make_unique<core::MdsServer>(
            network, "mds-g" + std::to_string(g) + "-" + std::to_string(m),
            opts, coord_.frontend_id(), pool_ids_, &directory_,
            &failover_log_);
        groups_[g].push_back(std::move(mds));
      }
      std::vector<NodeId> member_ids;
      for (auto& mds : groups_[g]) member_ids.push_back(mds->id());
      for (auto& mds : groups_[g]) mds->SetGroupMembers(member_ids);
    }

    std::vector<NodeId> all_mds_ids;
    for (auto& group : groups_) {
      for (auto& mds : group) all_mds_ids.push_back(mds->id());
    }
    for (int d = 0; d < config_.data_servers; ++d) {
      data_servers_.push_back(std::make_unique<DataServer>(
          network, "dn" + std::to_string(d), kBlockReportInterval));
      data_servers_.back()->SetMetadataNodes(all_mds_ids);
    }

    for (int c = 0; c < config_.clients; ++c) {
      clients_.push_back(std::make_unique<FsClient>(
          network, "client" + std::to_string(c), coord_.frontend_id(),
          config_.mds.partition_map, config_.client));
    }

    InstallProbes();
  }

  ~CfsCluster() {
    // The probe closures capture `this`; they must not outlive the cluster
    // (the simulator — and its ProbeRegistry — usually does).
    auto& probes = network_.sim().obs().probes();
    for (obs::ProbeId pid : probe_ids_) probes.Unregister(pid);
  }

  CfsCluster(const CfsCluster&) = delete;
  CfsCluster& operator=(const CfsCluster&) = delete;

  /// Boots everything: pool nodes and actives immediately, backups after a
  /// short stagger, then data servers and clients.
  void Start() {
    for (auto& p : pool_) p->Boot();
    for (auto& group : groups_) {
      group[0]->Start(ServerState::kActive);
    }
    auto& sim = network_.sim();
    sim.After(kBackupBootDelay, [this] {
      for (auto& group : groups_) {
        for (std::size_t m = 1; m < group.size(); ++m) {
          const bool junior =
              static_cast<int>(m) > config_.standbys_per_group;
          group[m]->Start(junior ? ServerState::kJunior
                                 : ServerState::kStandby);
        }
      }
      for (auto& dn : data_servers_) dn->Boot();
      for (auto& c : clients_) c->Boot();
    });
  }

  // --- accessors ---------------------------------------------------------
  const CfsConfig& config() const noexcept { return config_; }
  coord::CoordEnsemble& coord() noexcept { return coord_; }
  core::GroupDirectory& directory() noexcept { return directory_; }

  core::MdsServer& mds(GroupId g, int member) { return *groups_[g][member]; }
  std::size_t group_size(GroupId g) const { return groups_[g].size(); }
  FsClient& client(int i) { return *clients_[i]; }
  int client_count() const { return static_cast<int>(clients_.size()); }
  DataServer& data_server(int i) { return *data_servers_[i]; }
  storage::PoolNode& pool_node(int i) { return *pool_[i]; }
  int pool_node_count() const { return static_cast<int>(pool_.size()); }
  /// The pool node co-hosted with configured member `member` of group g.
  storage::PoolNode& pool_node(GroupId g, int member) {
    return *pool_[g * (pool_.size() / config_.groups) + member];
  }
  /// The one way to inject a fault into this cluster (cluster/faults.hpp).
  Faults& faults() noexcept { return faults_; }

  /// The member currently acting as group g's active, or null mid-failover.
  /// Trusts the coordination view: a partitioned ex-active may still
  /// *believe* it is active until it learns its session expired.
  core::MdsServer* FindActive(GroupId g) {
    const NodeId in_view = coord_.frontend().PeekView(g).FindActive();
    core::MdsServer* fallback = nullptr;
    for (auto& mds : groups_[g]) {
      if (!mds->alive() || mds->role() != ServerState::kActive) continue;
      if (mds->id() == in_view) return mds.get();
      fallback = mds.get();
    }
    return in_view == kInvalidNode ? fallback : nullptr;
  }

  /// The convergence audit: group g's alive standbys whose namespace
  /// differs from its active's. Empty when the group has no active.
  std::vector<core::MdsServer*> DivergedStandbys(GroupId g) {
    std::vector<core::MdsServer*> out;
    const core::MdsServer* active = FindActive(g);
    if (active == nullptr) return out;
    const std::uint64_t want = active->tree().Fingerprint();
    for (const auto& m : Members(g)) {
      if (m.role == ServerState::kStandby &&
          m.server->tree().Fingerprint() != want) {
        out.push_back(m.server);
      }
    }
    return out;
  }

  // --- membership API -----------------------------------------------------
  //
  // Typed elastic-membership surface. Scenario commands, the checker's
  // membership faults and tests all go through these four calls; nothing
  // outside CfsCluster reaches into the member vectors to mutate group
  // composition.

  /// One row of a group-membership snapshot. `role` is the member's *local*
  /// role (kDown when the process is not running), which can briefly differ
  /// from the coordination view mid-transition.
  struct MemberInfo {
    NodeId id;
    int index;  ///< position within the group (stable for a member's life)
    ServerState role;
    core::MdsServer* server;
  };

  /// Snapshot of group g's membership, including down/retired members.
  std::vector<MemberInfo> Members(GroupId g) {
    std::vector<MemberInfo> out;
    out.reserve(groups_[g].size());
    for (std::size_t m = 0; m < groups_[g].size(); ++m) {
      auto* mds = groups_[g][m].get();
      out.push_back({mds->id(), static_cast<int>(m),
                     mds->alive() ? mds->role() : ServerState::kDown,
                     mds});
    }
    return out;
  }

  /// Alive members of group g currently in `role`.
  int CountRole(GroupId g, ServerState role) {
    int n = 0;
    for (auto& mds : groups_[g]) {
      if (mds->alive() && mds->role() == role) ++n;
    }
    return n;
  }

  /// Grows group g by one standby (Section III.D: "more new backup nodes
  /// can also be added in the replica group"). A previously retired (down)
  /// member is restarted in place when one exists; otherwise a fresh node
  /// is allocated. Either way the member joins as a junior and is renewed
  /// into a standby by the active — the ordinary catch-up path, so
  /// linearizability is untouched. Nudges the active's renew scan so the
  /// promotion does not wait out a full scan period.
  core::MdsServer& AddStandby(GroupId g) {
    core::MdsServer* joined = nullptr;
    for (auto& mds : groups_[g]) {
      if (!mds->alive()) {
        joined = mds.get();
        joined->Restart(0);  // OnRestart rejoins as junior
        break;
      }
    }
    if (joined == nullptr) {
      core::MdsOptions opts = config_.mds;
      opts.group = g;
      auto mds = std::make_unique<core::MdsServer>(
          network_, "mds-g" + std::to_string(g) + "-add" +
                       std::to_string(groups_[g].size()),
          opts, coord_.frontend_id(), pool_ids_, &directory_, &failover_log_);
      groups_[g].push_back(std::move(mds));
      std::vector<NodeId> member_ids;
      for (auto& m : groups_[g]) member_ids.push_back(m->id());
      for (auto& m : groups_[g]) m->SetGroupMembers(member_ids);
      joined = groups_[g].back().get();
      joined->Start(ServerState::kJunior);
    }
    if (core::MdsServer* active = FindActive(g)) active->KickRenewScan();
    return *joined;
  }

  /// The standby RemoveStandby(g) would retire right now, or null when no
  /// standby is safely demotable (none drained, or the group has no settled
  /// active). Exposed so tests can assert on the demotion policy.
  core::MdsServer* PickDemotable(GroupId g, NodeId id = kInvalidNode) {
    const NodeId active_id = coord_.frontend().PeekView(g).FindActive();
    if (active_id == kInvalidNode) return nullptr;  // mid-failover: hands off
    core::MdsServer* best = nullptr;
    for (auto& mds : groups_[g]) {
      if (!mds->alive() || mds->role() != ServerState::kStandby) continue;
      if (mds->id() == active_id) continue;
      if (id != kInvalidNode && mds->id() != id) continue;
      // Drained only: no parked standby reads, and caught up with the
      // group's committed prefix (a lagging standby still holds journal
      // state the group may need for the next failover).
      if (mds->parked_read_count() != 0) continue;
      if (mds->last_sn() < CommittedFloor(g)) continue;
      if (best == nullptr || mds->last_sn() > best->last_sn()) {
        best = mds.get();
      }
    }
    return best;
  }

  /// Shrinks group g by retiring one drained standby (the specific node
  /// when `id` is given). The retiree bounces its parked reads, reports
  /// itself down, and stops; it remains in the group vector as reusable
  /// capacity for a later AddStandby. Refuses to touch the active, a
  /// lagging standby, or anything while the group has no settled active.
  Status RemoveStandby(GroupId g, NodeId id = kInvalidNode) {
    core::MdsServer* victim = PickDemotable(g, id);
    if (victim == nullptr) {
      return Status::Unavailable("group " + std::to_string(g) +
                                 " has no drained standby to retire");
    }
    victim->Retire();
    return Status::Ok();
  }

  /// Asks group g's active to renew a junior into a standby now instead of
  /// on its next scheduled scan. Promotion still runs the full renewing
  /// protocol (image fetch + journal catch-up + fenced SetState).
  Status PromoteJunior(GroupId g) {
    if (CountRole(g, ServerState::kJunior) == 0) {
      return Status::NotFound("group " + std::to_string(g) +
                              " has no junior to promote");
    }
    core::MdsServer* active = FindActive(g);
    if (active == nullptr) {
      return Status::Unavailable("group " + std::to_string(g) +
                                 " has no settled active");
    }
    active->KickRenewScan();
    return Status::Ok();
  }

  /// Pre-populates every member of group g with the same namespace (bench
  /// setup for Table I image scaling). `fn` builds it once, on the first
  /// member; the others get a copy of that tree, the way a standby takes
  /// its state from the active.
  void PreloadGroup(GroupId g,
                    const std::function<void(fsns::Tree&)>& fn,
                    SerialNumber base_sn = 0) {
    const auto& members = groups_[g];
    members.front()->Preload(fn);
    const fsns::Tree& built = members.front()->tree();
    for (auto& mds : members) {
      if (mds != members.front()) {
        mds->Preload([&built](fsns::Tree& tree) { tree = built; });
      }
      if (base_sn != 0) mds->SetLastSn(base_sn);
    }
  }

  /// Per-failover stage timestamps (fig7); owned here, not a singleton.
  core::FailoverTraceLog& failover_log() noexcept { return failover_log_; }

  /// Kicks off an online migration of `slot` away from its current owner
  /// (to `dst`, or round-robin to the next group). Returns the status of
  /// the source active's StartShardMigration, or Unavailable when the
  /// owner group has no settled active to drive it.
  Status StartShardMigration(std::uint32_t slot,
                             GroupId dst = kNoGroup) {
    for (GroupId g = 0; g < static_cast<GroupId>(groups_.size()); ++g) {
      core::MdsServer* active = FindActive(g);
      if (active == nullptr) continue;
      const shard::PartitionMap& map = active->partition_map();
      if (map.OwnerOfSlot(slot) != g) continue;
      const GroupId to =
          dst != kNoGroup ? dst
                          : (g + 1) % static_cast<GroupId>(groups_.size());
      return active->StartShardMigration(slot, to);
    }
    return Status::Unavailable("no settled active owns the slot");
  }

  static constexpr GroupId kNoGroup = 0xffffffffu;

 private:
  /// The group's committed prefix: the highest batch any member knows to be
  /// committed. A standby below this floor is still catching up and must
  /// not be retired.
  SerialNumber CommittedFloor(GroupId g) {
    SerialNumber floor = 0;
    for (auto& mds : groups_[g]) {
      if (mds->alive()) floor = std::max(floor, mds->committed_sn());
    }
    return floor;
  }

  /// Registers the MAMS safety invariants with the simulator's probe
  /// registry. They are re-evaluated on every committed view change and on
  /// every local role flip; a violation is logged via MAMS_ERROR and
  /// retained in the registry for tests to assert on.
  void InstallProbes() {
    auto& probes = network_.sim().obs().probes();

    // At most one server per group may act as active under the current
    // fence token. (A deposed active that has not yet learned of its
    // demotion still believes it is active, but its fence is stale.)
    probe_ids_.push_back(probes.Register(
        "single_active_per_group", [this]() -> std::optional<std::string> {
          for (GroupId g = 0; g < static_cast<GroupId>(groups_.size()); ++g) {
            const auto& view = coord_.frontend().PeekView(g);
            int fenced_actives = 0;
            for (const auto& mds : groups_[g]) {
              if (mds->alive() && mds->role() == ServerState::kActive &&
                  mds->fence() == view.fence_token) {
                ++fenced_actives;
              }
            }
            if (fenced_actives > 1) {
              return "group " + std::to_string(g) + " has " +
                     std::to_string(fenced_actives) +
                     " actives holding the current fence token";
            }
          }
          return std::nullopt;
        }));

    // Fence tokens only ever grow: each grant bumps the token, and a
    // re-issued (smaller) token would defeat IO fencing entirely.
    probe_ids_.push_back(probes.Register(
        "fence_token_monotone", [this]() -> std::optional<std::string> {
          for (GroupId g = 0; g < static_cast<GroupId>(groups_.size()); ++g) {
            const FenceToken cur = coord_.frontend().PeekView(g).fence_token;
            FenceToken& prev = prev_fence_[g];
            if (cur < prev) {
              return "group " + std::to_string(g) + " fence went backwards: " +
                     std::to_string(prev) + " -> " + std::to_string(cur);
            }
            prev = cur;
          }
          return std::nullopt;
        }));

    // Applied serial numbers are monotone per node; the only legal decrease
    // is a reset to 0 (crash, or discarding provably uncommitted state).
    // Juniors are exempt while renewing: an image restore legitimately
    // rewinds them to the checkpoint before the journal replay catches up,
    // and a probe tick can land mid-restore.
    probe_ids_.push_back(probes.Register(
        "sn_monotone_per_node", [this]() -> std::optional<std::string> {
          for (auto& group : groups_) {
            for (const auto& mds : group) {
              const SerialNumber cur = mds->last_sn();
              SerialNumber& prev = prev_sn_[mds->id()];
              if (!mds->alive() || mds->role() == ServerState::kJunior) {
                prev = cur;
                continue;
              }
              if (cur < prev && cur != 0) {
                return "node " + std::to_string(mds->id()) +
                       " applied sn went backwards: " + std::to_string(prev) +
                       " -> " + std::to_string(cur);
              }
              prev = cur;
            }
          }
          return std::nullopt;
        }));

    // No committed batch may be lost across a failover: once a batch has a
    // standby ack or a durable SSP copy, any *settled* new active (one the
    // view and its own role agree on) must have applied at least that far.
    probe_ids_.push_back(probes.Register(
        "committed_sn_not_lost", [this]() -> std::optional<std::string> {
          for (GroupId g = 0; g < static_cast<GroupId>(groups_.size()); ++g) {
            SerialNumber& watermark = committed_watermark_[g];
            for (const auto& mds : groups_[g]) {
              watermark = std::max(watermark, mds->committed_sn());
            }
            const NodeId active_id = coord_.frontend().PeekView(g).FindActive();
            if (active_id == kInvalidNode) continue;
            for (const auto& mds : groups_[g]) {
              if (mds->id() != active_id) continue;
              if (mds->alive() && mds->role() == ServerState::kActive &&
                  mds->last_sn() < watermark) {
                return "group " + std::to_string(g) + " active node " +
                       std::to_string(active_id) + " at sn " +
                       std::to_string(mds->last_sn()) +
                       " lost committed batches (watermark " +
                       std::to_string(watermark) + ")";
              }
            }
          }
          return std::nullopt;
        }));
  }

  net::Network& network_;
  CfsConfig config_;
  coord::CoordEnsemble coord_;
  core::GroupDirectory directory_;
  core::FailoverTraceLog failover_log_;
  std::vector<std::unique_ptr<storage::PoolNode>> pool_;
  std::vector<NodeId> pool_ids_;
  std::vector<std::vector<std::unique_ptr<core::MdsServer>>> groups_;
  std::vector<std::unique_ptr<DataServer>> data_servers_;
  std::vector<std::unique_ptr<FsClient>> clients_;
  Faults faults_{*this, network_};

  // Probe bookkeeping (see InstallProbes).
  std::vector<obs::ProbeId> probe_ids_;
  std::map<GroupId, FenceToken> prev_fence_;
  std::map<NodeId, SerialNumber> prev_sn_;
  std::map<GroupId, SerialNumber> committed_watermark_;
};

}  // namespace mams::cluster
