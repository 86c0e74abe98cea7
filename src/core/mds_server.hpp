// MdsServer — one member of a MAMS replica group. It keeps what every role
// shares: the role, view, fence, namespace (tree, block map, sn and CPU
// cursors), the recent-batch window, journal intake and message dispatch.
// Each protocol has one owner holding only that protocol's state:
//
//   ACTIVE   CommitPath (the modified 2PC) exists exactly while active.
//            Renewal renews juniors and checkpoints; ReadService grants
//            leases; ShardEngine drives migrations and cross-group renames.
//   STANDBY  applies batches in sn order here; ReadService serves and parks
//            reads. An election creates an Upgrade, which bids and runs the
//            six failover steps (Section III.C) until step 6 or an abort.
//   JUNIOR   Renewal's junior side catches up from the SSP (Section III.D).
//
// Leaving a role destroys its owner (a step-down the CommitPath, the end of
// an upgrade the Upgrade; a crash rebuilds all five); a role-scoped owner's
// callbacks return once their weak_ptr to it expired. Owners use only the
// owner interface below; none is a friend.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/client.hpp"
#include "core/commit_path.hpp"
#include "core/failover_trace.hpp"
#include "core/options.hpp"
#include "core/pool_files.hpp"
#include "core/read_service.hpp"
#include "core/renewal.hpp"
#include "core/shard_engine.hpp"
#include "core/upgrade.hpp"
#include "fsns/blockmap.hpp"
#include "net/rpc.hpp"
#include "obs/observability.hpp"
#include "storage/ssp.hpp"

namespace mams::core {

/// Shared lookup table "group -> current active node", maintained by the
/// servers from their watch events; used to route cross-group transaction
/// legs. (Clients do their own view polling; see cluster::FsClient.)
struct GroupDirectory {
  std::map<GroupId, NodeId> active_of;

  NodeId Active(GroupId g) const {
    auto it = active_of.find(g);
    return it == active_of.end() ? kInvalidNode : it->second;
  }
};

/// Bumps a per-server counter and its registry twin together.
inline void Bump(std::uint64_t& local, obs::Counter* shared) {
  ++local;
  shared->Add();
}

class MdsServer : public net::Host {
 public:
  /// `failover_log` (optional) collects per-failover stage timestamps for
  /// the fig7 bench; the owner is the cluster/scenario, never a singleton.
  MdsServer(net::Network& network, std::string name, MdsOptions options,
            NodeId coord, std::vector<NodeId> ssp_pool,
            GroupDirectory* directory,
            FailoverTraceLog* failover_log = nullptr);
  ~MdsServer() override;

  /// All group members (node ids), including this server. Must be set
  /// before boot; used for registration (failover step 5) and re-flushes.
  void SetGroupMembers(std::vector<NodeId> members) {
    members_ = std::move(members);
  }

  /// Routes cross-group transaction legs; owner is the cluster.
  GroupDirectory* directory() noexcept { return directory_; }

  /// Boots the server in the given initial role. kActive additionally
  /// acquires the group lock before serving.
  void Start(ServerState initial_role);

  /// Elastic scale-down: bounces parked reads (clients retry elsewhere at
  /// once), marks this server kDown in the view right away (no 5 s
  /// session-expiry lag), then stops. Safety-wise a tolerated crash;
  /// rejoining rides Restart() -> junior -> renewing like any admission.
  void Retire();

  /// Elastic scale-up nudge: CfsCluster runs the renew scan right after
  /// admitting a junior, so promotion takes one RPC round, not one scan
  /// period. No-op unless this server is the active.
  void KickRenewScan() {
    if (commit_) renewal_->Scan();
  }

  /// Reads currently parked on this standby waiting for a journal batch
  /// (CfsCluster's "drained" criterion for demotion candidates).
  std::size_t parked_read_count() const noexcept {
    return reads_->parked_count();
  }

  /// Commit-path backlog: 2PC rounds in flight, plus one while records wait
  /// to seal. At most kCommitWindow + 1, and 0 unless active.
  std::size_t commit_queue_depth() const noexcept {
    return commit_ ? commit_->queue_depth() : 0;
  }

  // --- observability -----------------------------------------------------
  ServerState role() const noexcept { return role_; }
  SerialNumber last_sn() const noexcept { return last_sn_; }
  /// Highest sn this server completed a 2PC sync for with at least one
  /// standby ack or a durable SSP copy — i.e. acknowledged work that some
  /// other party also holds. Invariant probes compare the post-failover
  /// active against the cluster-wide max of this value.
  SerialNumber committed_sn() const noexcept { return committed_sn_; }
  FenceToken fence() const noexcept { return fence_; }
  /// Send time of the last coordination exchange the service confirmed
  /// (coord::CoordClient::last_ack_time); no lease this server grants
  /// expires after it plus coord::kSessionTimeout.
  SimTime last_session_ack() const noexcept {
    return coord_client_->last_ack_time();
  }
  const fsns::Tree& tree() const noexcept { return tree_; }
  fsns::Tree& mutable_tree() noexcept { return tree_; }
  const fsns::BlockMap& blocks() const noexcept { return blocks_; }
  const MdsOptions& options() const noexcept { return options_; }
  GroupId group() const noexcept { return options_.group; }

  struct Counters {
    std::uint64_t ops_served = 0;
    std::uint64_t mutations = 0;
    std::uint64_t reads = 0;
    std::uint64_t batches_synced = 0;
    std::uint64_t batches_applied = 0;
    std::uint64_t standby_reads_served = 0;
    std::uint64_t standby_reads_parked = 0;
    std::uint64_t shard_bounces = 0;
    /// Client-cache directory leases (active side).
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_revoked = 0;
    /// Actions held on a revoke barrier: mutation acks, and shard
    /// activations waiting on a migration cutover's barrier.
    std::uint64_t lease_replies_held = 0;
    std::uint64_t lease_barrier_expiries = 0;  ///< barriers released by TTL
    std::uint64_t lease_patches = 0;  ///< per-entry patches pushed
    /// Replay counters. Apply is serial, so apply_waves counts records and
    /// apply_serial_fallbacks counts batches; bench/e2e reads all three.
    std::uint64_t apply_waves = 0;             ///< records applied
    std::uint64_t apply_records = 0;           ///< records applied
    std::uint64_t apply_serial_fallbacks = 0;  ///< batches applied
    /// Batches whose oldest record waited before its seal: for a 2PC
    /// window slot, or for the CPU to drain (CommitPath::SealIfSlotFree).
    std::uint64_t pipeline_deferred = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t cross_group_renames = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  // --- shard subsystem ------------------------------------------------------
  /// This server's current partition map (routing truth as it knows it).
  const shard::PartitionMap& partition_map() const noexcept {
    return shard_->map();
  }
  using MigrationStats = core::MigrationStats;
  const std::vector<MigrationStats>& migration_stats() const noexcept {
    return shard_->stats();
  }

  /// Starts migrating `slot` to group `dst`. Only valid on the active of
  /// the slot's current owner group; at most one migration per slot at a
  /// time. The engine runs asynchronously; completion is observable through
  /// the partition map epoch and migration_stats().
  Status StartShardMigration(std::uint32_t slot, GroupId dst) {
    return shard_->StartMigration(slot, dst);
  }

  /// Pre-populates the namespace directly (bench setup; bypasses journal).
  void Preload(const std::function<void(fsns::Tree&)>& fn) { fn(tree_); }
  void SetLastSn(SerialNumber sn) { last_sn_ = sn; }

  /// Forces an image checkpoint now: on the active, or on a preloaded
  /// server before it boots (bench setup).
  void CheckpointNow() {
    if (!alive() || commit_) renewal_->WriteCheckpoint();
  }

  // --- owner interface: what the protocol owners use of their server --------
  /// Registry twins of the counters, plus the mds.* histograms and gauges.
  struct MetricHandles {
    obs::Counter *ops_served, *mutations, *reads, *batches_synced,
        *batches_applied, *duplicate_batches, *elections_won, *elections_lost,
        *renews_completed, *fenced_rejections, *buffered_during_upgrade,
        *standby_reads_served, *standby_reads_parked, *standby_reads_bounced,
        *shard_bounces, *leases_granted, *leases_revoked, *lease_replies_held,
        *lease_barrier_expiries, *lease_patches, *leases_refused,
        *lease_renewals, *lease_renewals_refused,
        *migrations_completed, *cross_group_renames;
    obs::Histogram *sync_batch_ns, *prepare_ack_ns, *batch_records,
        *seal_wait_ns, *cpu_wait_ns, *resolve_ns, *standby_read_staleness_sn;
    obs::Gauge *last_sn, *fill_snapshot_bytes;
  };
  const MetricHandles& m() const noexcept { return m_; }
  Counters& mutable_counters() noexcept { return counters_; }
  /// The active tenure, null unless active: owners acting for the active
  /// capture it as a weak_ptr, their liveness check.
  const std::shared_ptr<CommitPath>& commit() const noexcept {
    return commit_;
  }
  ReadService& reads() noexcept { return *reads_; }
  ShardEngine& shard() noexcept { return *shard_; }
  coord::CoordClient& coord() noexcept { return *coord_client_; }
  storage::SspClient& ssp() noexcept { return *ssp_; }
  const coord::GroupView& view() const noexcept { return view_; }
  coord::GroupView& mutable_view() noexcept { return view_; }
  void set_fence(FenceToken fence) noexcept { fence_ = fence; }
  const std::vector<NodeId>& members() const noexcept { return members_; }
  const std::deque<BatchPtr>& recent_batches() const noexcept {
    return recent_batches_;
  }
  Rng& rng() noexcept { return rng_; }
  FailoverTraceLog* failover_log() noexcept { return failover_log_; }
  std::string JournalFile() const { return pool_files::Journal(group()); }

  /// Queues `cost` of CPU behind earlier work; returns the delay until done.
  SimTime ChargeCpu(SimTime cost);
  /// CPU work already queued: how long a charge made now waits to start.
  SimTime CpuBacklog() const noexcept {
    return std::max<SimTime>(cpu_free_at_ - sim().Now(), 0);
  }
  /// A reply carrying `status`, stamped (StampReply) at this server's sn.
  std::shared_ptr<ClientResponseMsg> StatusReply(const Status& status) const;
  void ReplyStatus(const ReplyFn& reply, const Status& s) {
    reply(StatusReply(s));
  }
  /// Stamps a client-visible reply with this server's applied sn and view
  /// epoch (the session-consistency metadata of the standby read path).
  void StampReply(ClientResponseMsg& out, SerialNumber applied_sn) const;
  /// Charges the op's CPU, then serves it as the active.
  void ProcessClientRequest(const RequestPtr& req, const ReplyFn& reply);
  void BecomeRole(ServerState role);
  void StepDownFromActive(const char* why);
  /// Step 6, an abort or a lost election: destroys the Upgrade.
  void EndUpgrade() { upgrade_.reset(); }
  /// `batch` is the newest applied or sealed batch: it sets last_sn_ and
  /// joins the recent window that backfills, re-flushes and renewals read.
  void AdvanceTo(BatchPtr batch);
  /// A finalized 2PC round, or a held batch whose SSP re-append stuck: a
  /// batch some standby or the SSP holds raises committed_sn_; one only
  /// this process holds marks the namespace dirty.
  void NoteFinalized(SerialNumber sn, bool replicated);
  /// Pulls the batches after last_sn_ from `from`'s recent window, one
  /// kFetchRpc exchange at a time, through the intake queue: journal
  /// backfill, step-5 catch-up and the renewal final sync. Fetches again
  /// while an exchange advanced last_sn_ and `more(reply)` holds; `done`
  /// gets the last reply's active_sn, or the failed exchange's status.
  void CatchUp(NodeId from,
               std::function<bool(const RenewJournalReplyMsg&)> more,
               std::function<void(Result<SerialNumber>)> done);
  /// Re-sends each recent batch after `after_sn` to each of `peers` but
  /// this server, fire-and-forget and fenced: failover step 4, the active's
  /// reconcile nudge and a junior's inclusion. Receivers drop an sn they
  /// already hold.
  void Resend(const std::vector<NodeId>& peers, SerialNumber after_sn);
  /// Applies the SSP journal records that extend last_sn_ contiguously
  /// (failover drain, junior replay); returns the bytes applied.
  std::uint64_t ApplyPoolRecords(
      const std::vector<storage::SspRecord>& records);

  /// One CatchUp exchange: a single attempt, because every caller has its
  /// own recovery story. The shard protocol's legs reuse its attempt
  /// timeout (shard_engine.cpp).
  static constexpr net::RpcPolicy kFetchRpc{
      .attempt_timeout = kSecond,
      .max_attempts = 1,
  };

 protected:
  void OnStart() override;
  void OnCrash() override;
  void OnRestart() override;

 private:
  void RegisterHandlers();
  void JoinGroup(ServerState state,
                 std::function<void(Status)> done = nullptr);
  void OnWatchEvent(const coord::GroupView& view);
  void MaybeStartElection(const coord::GroupView& view);
  void HandleClientRequest(const net::Envelope& env,
                           const net::MessagePtr& msg, const ReplyFn& reply);
  void HandleGroupRegister(const net::Envelope& env,
                           const net::MessagePtr& msg, const ReplyFn& reply);
  void HandleJournalPrepare(const net::Envelope& env,
                            const net::MessagePtr& msg, const ReplyFn& reply);
  /// Shard admission and the tree mutation; CommitPath journals the rest.
  void ExecuteMutation(const RequestPtr& req, const ReplyFn& reply);
  void ApplyReadyBatches();
  /// Folds the batches a CatchUp exchange returned into the intake queue
  /// and applies the ready ones.
  void ApplyFetchedBatches(const RenewJournalReplyMsg& resp);
  /// Applies a replicated batch record by record, in record order.
  void ApplyBatch(const BatchPtr& batch);
  /// Drops the namespace and everything derived from it (crash, a dirty
  /// step-down, or state ahead of a new active): tree, blocks, sn cursor,
  /// recent window, intake queue and the junior's renewal cursor.
  void DiscardNamespace();

  MdsOptions options_;
  NodeId coord_;
  GroupDirectory* directory_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  std::unique_ptr<storage::SspClient> ssp_;
  std::vector<NodeId> members_;
  Rng rng_;
  obs::Observability* obs_;
  FailoverTraceLog* failover_log_;

  ServerState role_ = ServerState::kDown;
  /// True when this (possibly deposed) server holds batches that were
  /// acknowledged locally but never made it to any standby or the SSP.
  bool dirty_ = false;
  coord::GroupView view_;
  FenceToken fence_ = 0;  ///< valid while this node holds the lock
  int join_retries_ = 0;  ///< feeds kJoinRetry's backoff; reset on success

  fsns::Tree tree_;
  fsns::BlockMap blocks_;
  SerialNumber last_sn_ = 0;
  SerialNumber committed_sn_ = 0;
  SimTime cpu_free_at_ = 0;

  std::deque<BatchPtr> recent_batches_;
  static constexpr std::size_t kRecentBatchCap = 2048;
  /// The most batches one CatchUp reply carries.
  static constexpr std::size_t kFetchBatchCap = 256;
  std::map<SerialNumber, BatchPtr> pending_batches_;
  bool backfill_inflight_ = false;
  /// Bumped by DiscardNamespace: a CatchUp reply to a request sent before
  /// the discard belongs to the dropped namespace and applies nothing.
  std::uint64_t discards_ = 0;

  std::shared_ptr<CommitPath> commit_;  ///< while active
  std::shared_ptr<Upgrade> upgrade_;    ///< first bid .. step 6 or abort
  // Per incarnation; each owner documents the parts that are role-scoped.
  std::unique_ptr<Renewal> renewal_;
  std::unique_ptr<ReadService> reads_;
  std::unique_ptr<ShardEngine> shard_;

  Counters counters_;
  MetricHandles m_{};
};

}  // namespace mams::core
