// MdsServer — one member of a MAMS replica group. Depending on its current
// role it behaves as:
//
//   ACTIVE   serves client metadata RPCs for its namespace partition,
//            aggregates mutations into journal batches (sn-stamped),
//            replicates them to every standby through the modified 2PC and
//            to the SSP, checkpoints images, and drives the renewing
//            protocol for juniors.
//   STANDBY  applies replicated batches in sn order (buffering gaps and
//            back-filling from the active), keeps block locations fresh
//            from data-server reports, and runs Algorithm 1 elections when
//            the global view loses its active.
//   JUNIOR   lags; rebuilds from the latest SSP image + journal tail under
//            the renewing protocol until the active upgrades it.
//
// Role flips follow the failover protocol of Section III.C (six steps,
// implemented in Upgrade*) and the renewing protocol of Section III.D.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coord/client.hpp"
#include "core/failover_trace.hpp"
#include "core/messages.hpp"
#include "core/options.hpp"
#include "fsns/blockmap.hpp"
#include "fsns/tree.hpp"
#include "journal/writer.hpp"
#include "net/host.hpp"
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

  /// Elastic scale-down: takes this server out of service cleanly. Parked
  /// reads are bounced first (clients retry elsewhere immediately instead
  /// of timing out), the coordination view is annotated kDown right away
  /// (no 5 s session-expiry lag), then the process stops. Safety-wise a
  /// retirement is indistinguishable from a tolerated crash; rejoining
  /// later rides Restart() -> junior -> renewing, the same catch-up path
  /// as any other admission.
  void Retire();

  /// Elastic scale-up nudge: runs the renewing-protocol scan immediately
  /// instead of waiting for the periodic timer — the autoscaler calls this
  /// right after admitting a junior so promotion latency is one RPC round,
  /// not one scan period. No-op unless this server is the active.
  void KickRenewScan() {
    if (role_ == ServerState::kActive) RenewScan();
  }

  /// Reads currently parked on this standby waiting for a journal batch
  /// (the autoscaler's "drained" criterion for demotion candidates).
  std::size_t parked_read_count() const noexcept {
    return parked_reads_.size();
  }

  /// Instantaneous commit-path backlog: 2PC rounds in flight, plus one
  /// while records wait for a window slot to seal. At most
  /// kCommitWindow + 1 (nonzero only on an active).
  std::size_t commit_queue_depth() const noexcept {
    const bool waiting = writer_ && writer_->pending_records() > 0;
    return pending_sync_.size() + (waiting ? 1 : 0);
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
    std::uint64_t duplicate_batches = 0;
    std::uint64_t elections_won = 0;
    std::uint64_t elections_lost = 0;
    std::uint64_t renews_completed = 0;
    std::uint64_t fenced_rejections = 0;
    std::uint64_t buffered_during_upgrade = 0;
    std::uint64_t standby_reads_served = 0;
    std::uint64_t standby_reads_parked = 0;
    std::uint64_t standby_reads_bounced = 0;
    std::uint64_t shard_bounces = 0;
    /// Client-cache directory leases (active side).
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_revoked = 0;
    /// Actions held on a revoke barrier: mutation acks, and shard
    /// activations waiting on a migration cutover's barrier.
    std::uint64_t lease_replies_held = 0;
    std::uint64_t lease_barrier_expiries = 0;  ///< barriers released by TTL
    /// Replay counters. Apply is serial, so apply_waves counts records and
    /// apply_serial_fallbacks counts batches; bench/e2e reads all three.
    std::uint64_t apply_waves = 0;             ///< records applied
    std::uint64_t apply_records = 0;           ///< records applied
    std::uint64_t apply_serial_fallbacks = 0;  ///< batches applied
    /// Batches sealed by a finalization: their records arrived while all
    /// kCommitWindow slots were busy and waited for one to free.
    std::uint64_t pipeline_deferred = 0;
    std::uint64_t migrations_started = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t migrations_aborted = 0;
    std::uint64_t cross_group_renames = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  // --- shard subsystem ------------------------------------------------------
  /// This server's current partition map (routing truth as it knows it).
  const shard::PartitionMap& partition_map() const noexcept { return map_; }

  /// Per-migration timeline measured on the source active, in virtual time.
  /// `fence_time..publish_time` is the cutover write-unavailability window
  /// the bench reports; entries/chunks size the transfer.
  struct MigrationStats {
    std::uint32_t slot = 0;
    GroupId dst = 0;
    TxId migration_id = 0;
    SimTime begin_time = 0;
    SimTime fence_time = 0;
    SimTime publish_time = 0;
    SimTime end_time = 0;
    std::uint64_t entries = 0;
    std::uint64_t chunks = 0;
    bool aborted = false;
  };
  const std::vector<MigrationStats>& migration_stats() const noexcept {
    return migration_stats_;
  }

  /// Starts migrating `slot` to group `dst`. Only valid on the active of
  /// the slot's current owner group; at most one migration per slot at a
  /// time. The engine runs asynchronously; completion is observable through
  /// the partition map epoch and migration_stats().
  Status StartShardMigration(std::uint32_t slot, GroupId dst);

  /// Pre-populates the namespace directly (bench setup; bypasses journal).
  void Preload(const std::function<void(fsns::Tree&)>& fn) { fn(tree_); }
  void SetLastSn(SerialNumber sn) { last_sn_ = sn; }

  /// Forces an image checkpoint now (bench setup).
  void CheckpointNow() { WriteCheckpoint(); }

 protected:
  void OnStart() override;
  void OnCrash() override;
  void OnRestart() override;

 private:
  // --- wiring -------------------------------------------------------------
  void RegisterHandlers();
  void OnStartRetry(ServerState initial);
  void JoinGroup(ServerState state,
                 std::function<void(Status)> done = nullptr);
  void OnWatchEvent(const coord::GroupView& view);

  // --- active: client ops ---------------------------------------------------
  void HandleClientRequest(const net::Envelope& env,
                           const net::MessagePtr& msg, const ReplyFn& reply);
  void ProcessClientRequest(const std::shared_ptr<const ClientRequestMsg>& req,
                            const ReplyFn& reply);
  void ExecuteMutation(const std::shared_ptr<const ClientRequestMsg>& req,
                       const ReplyFn& reply);
  void ExecuteRead(const ClientRequestMsg& req, const ReplyFn& reply,
                   bool from_standby = false);
  SimTime ChargeCpu(SimTime cost);
  void ReplyStatus(const ReplyFn& reply, const Status& status);
  /// Stamps every client-visible reply with this server's applied sn and
  /// view epoch (the session-consistency metadata of the standby read
  /// path). Write acks may pass an explicit sn the mutation committed at.
  void StampReply(ClientResponseMsg& out, SerialNumber applied_sn) const;

  // --- standby: session-consistent read offload -----------------------------
  void HandleStandbyRead(const std::shared_ptr<const ClientRequestMsg>& req,
                         const ReplyFn& reply);
  void ServeStandbyRead(const std::shared_ptr<const ClientRequestMsg>& req,
                        const ReplyFn& reply);
  void BounceRead(const ReplyFn& reply, const char* why);
  void DrainParkedReads();
  void FlushParkedReads(const char* why);

  // --- active: client-cache directory leases (src/core/mds_server.cpp) ------
  struct LeaseBarrier {
    /// (client node, lease id) acks still missing.
    std::set<std::pair<NodeId, std::uint64_t>> outstanding;
    /// Latest expire_at among the revoked grants: past this instant no
    /// client can serve them anyway, so the barrier self-releases.
    SimTime release_at = 0;
    /// Deferred completions (client acks, cross-group legs) run on release.
    std::vector<std::function<void()>> held;
  };
  /// Stamps a directory lease grant onto an active-served read reply.
  void MaybeGrantLease(const ClientRequestMsg& req, ClientResponseMsg& out);
  /// Drops every grant conflicting with the mutation's path footprint,
  /// pushes revocations to remote holders (coordination relay), installs a
  /// reply barrier under `txid` when any remote holder exists, and returns
  /// the requester's own revoked ids for ack piggybacking.
  std::vector<std::uint64_t> RevokeConflictingLeases(
      const ClientRequestMsg& req, TxId txid);
  /// Drops every grant on directory `dir`: `own`'s ids go to `own_ids`,
  /// every other holder gets a push and a place on `barrier`.
  void RevokeDir(const std::string& dir, NodeId own,
                 std::vector<std::uint64_t>& own_ids,
                 std::map<NodeId, std::vector<coord::LeaseRevocation>>& pushes,
                 LeaseBarrier& barrier);
  /// RevokeDir over `path`'s parent, `path` itself, and its subtree.
  void CollectRevocations(
      const std::string& path, NodeId own, std::vector<std::uint64_t>& own_ids,
      std::map<NodeId, std::vector<coord::LeaseRevocation>>& pushes,
      LeaseBarrier& barrier);
  void PushRevocations(
      std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes);
  void InstallLeaseBarrier(TxId txid, LeaseBarrier barrier);
  /// Runs `action` now, or holds it until `txid`'s barrier releases.
  void RunOrHoldOnBarrier(TxId txid, std::function<void()> action);
  void ReleaseLeaseBarrier(TxId txid, bool expired);
  void HandleLeaseRevokeAck(const net::MessagePtr& msg);
  /// Migration cutover: revokes every grant under the migrating slot into
  /// a barrier keyed by the migration id (a TxId, like a mutation's);
  /// activation of the destination is held on it.
  void RevokeSlotLeases(std::uint32_t slot, TxId migration_id);
  /// Crash teardown: drops the grant table and every barrier. Held
  /// completions die with the process — their replies were lost anyway,
  /// clients retry, and the TTL bounds how long a revoked copy stays
  /// servable. (A live step-down keeps the barriers: see BecomeRole.)
  void ResetLeaseState();

  // --- active: journal sync (modified 2PC, pipelined) -----------------------
  /// The one group-commit sealing rule: seals every pending record into one
  /// batch when fewer than kCommitWindow rounds are in flight. Runs after
  /// every journal append and after each finalization; returns whether it
  /// sealed.
  bool SealIfSlotFree();
  /// The writer's sink: starts the batch's 2PC round to every standby and
  /// the SSP.
  void OnBatchSealed(journal::Batch batch, std::vector<char> bytes);
  void MaybeCompleteSync(SerialNumber sn);
  /// Finalizes completed syncs strictly from the front of pending_sync_
  /// (sn order), then seals what waited for the freed slot.
  void FinalizeCompletedSyncs();
  void DemoteUnresponsiveStandby(NodeId peer);
  void RetrySspAppend(SerialNumber sn);

  // --- standby/junior: replication intake ----------------------------------
  void HandleJournalPrepare(const net::Envelope& env,
                            const net::MessagePtr& msg, const ReplyFn& reply);
  void ApplyReadyBatches();
  void RequestBackfill(NodeId from);
  /// Folds the batches a journal fetch returned (backfill, step-5 catch-up,
  /// renewal final sync) into the intake queue and applies the ready ones.
  void ApplyFetchedBatches(const RenewJournalReplyMsg& resp);
  /// Applies the SSP journal records that extend last_sn_ contiguously
  /// (failover drain, junior replay); returns the bytes applied.
  std::uint64_t ApplyPoolRecords(
      const std::vector<storage::SspRecord>& records);
  /// Applies a replicated batch record by record, in record order.
  void ApplyBatch(const std::shared_ptr<const journal::Batch>& batch);

  // --- election + failover protocol (Section III.C) -------------------------
  void MaybeStartElection(const coord::GroupView& view);
  void BidForLock();
  void UpgradeStep1CheckState();
  void UpgradeStep2FlipStates();
  void UpgradeStep4ReflushJournals();
  void UpgradeStep4DrainReplica(std::size_t replica, bool progressed);
  void UpgradeStep4DoReflush();
  void UpgradeStep5GatherRegistrations();
  void UpgradeStep5Round(bool final_round);
  void UpgradeStep5CatchUp(NodeId source, SerialNumber target_sn);
  void UpgradeStep5Classify(const std::map<NodeId, SerialNumber>& acks);
  void UpgradeStep6BecomeActive();
  void AbortUpgrade(const std::string& why);
  void StepDownFromActive(const char* why);

  // --- renewing protocol (Section III.D) ------------------------------------
  void RenewScan();
  void HandleRenewCommand(const net::MessagePtr& msg);
  void RenewFetchImageChunk();
  void RenewFetchJournal();
  void RenewFinalSync();
  void HandleRenewProgress(const net::Envelope& env,
                           const net::MessagePtr& msg);
  void FinishRenewTarget(NodeId junior, SerialNumber reported_sn);
  void SendRenewProgress(bool failed = false);

  // --- shard subsystem (src/core/mds_shard.cpp) -------------------------------
  // Map + admission.
  void AdoptMap(std::uint64_t epoch, const std::vector<char>& bytes);
  void FetchMapFromCoord();
  bool OwnsSlotForRead(std::uint32_t slot) const;
  bool OwnsSlotForWrite(std::uint32_t slot) const;
  /// Returns false and replies with a shard bounce (current map attached)
  /// when this server must not serve the request; also enforces the
  /// rename-intent fences and the migration-time structural restriction.
  bool ShardAdmitRead(const ClientRequestMsg& req, const ReplyFn& reply);
  bool ShardAdmitMutation(const ClientRequestMsg& req, const ReplyFn& reply);
  void ShardBounce(const ReplyFn& reply, const char* why);
  /// Path touches a pending cross-group rename (src, dst, or an ancestor
  /// of a src) — such requests stall until the rename resolves.
  bool RenameFenced(const ClientRequestMsg& req) const;
  /// Appends one shard control/install record to the journal, applies it to
  /// the tree, and notes it for a capturing migration. Returns its txid.
  TxId AppendShardRecord(journal::LogRecord rec);
  /// AppendShardRecord + SealIfSlotFree + `done(ok)` once the batch commits
  /// (standby ack or SSP); the record is then as durable as any client
  /// mutation.
  TxId JournalShardRecord(journal::LogRecord rec,
                          std::function<void(bool)> done);
  /// ExecuteMutation hook: while a migration is capturing, note mutated
  /// paths that live in the migrating slot (shipped in the final chunk).
  void CaptureMigrationDelta(const journal::LogRecord& rec);
  /// Sends one shard-protocol leg to `group`'s current active as a single
  /// net::RpcCall: unlimited attempts at a flat `backoff`, a non-ok ack (or
  /// whatever `hooks.retry_response` says) retries, and the call is
  /// cancelled once `stale()` holds or this server stops being the active.
  /// `on_ack` runs on the accepted ack.
  template <class Ack>
  void SendShardLeg(GroupId group, net::MessagePtr msg, SimTime backoff,
                    std::function<bool()> stale,
                    std::function<void(const Ack&)> on_ack,
                    net::RpcHooks hooks = {});
  /// Staleness guard of a migration leg: the slot's drive is gone or now
  /// drives a different migration.
  bool MigrationStale(std::uint32_t slot, TxId migration_id) const;

  // Source-side migration engine.
  struct MigrationDrive;
  /// Emits the install record(s) reconstructing `node` at `path` (dir or
  /// file + its blocks) into `out`; shared by snapshot and delta shipping.
  void AppendInstallRecords(const std::string& path, const fsns::Inode& node,
                            std::vector<journal::LogRecord>& out);
  void SnapshotShard(MigrationDrive& d);
  void SendNextChunk(std::uint32_t slot);
  void StartCutover(std::uint32_t slot);
  void DrainThenShip(std::uint32_t slot, int polls_left);
  void ShipFinalChunk(std::uint32_t slot);
  void SendActivate(std::uint32_t slot);
  void PublishMapForSlot(std::uint32_t slot);
  void FinishMigration(std::uint32_t slot);
  void AbortOutbound(std::uint32_t slot);
  void RollForwardOutbound(std::uint32_t slot);

  // Destination side.
  void HandleShardTransfer(const net::Envelope& env, const net::MessagePtr& msg,
                           const ReplyFn& reply);
  void HandleShardControl(const net::Envelope& env, const net::MessagePtr& msg,
                          const ReplyFn& reply);
  MigrationOutcome AnswerMigrationQuery(std::uint32_t slot,
                                        TxId migration_id) const;
  /// While an inbound migration is pending, periodically asks the source
  /// group what happened — covers a source that crashed after deciding
  /// but before telling us.
  void ArmInboundWatchdog(std::uint32_t slot);

  // Cross-group rename (two-group coordinated transaction).
  void StartCrossGroupRename(std::shared_ptr<const ClientRequestMsg> req,
                             GroupId dst_group, const ReplyFn& reply);
  void SendRenameCommit(const std::string& src);
  void HandleRenameCommit(const std::shared_ptr<const ShardControlMsg>& ctl,
                          const ReplyFn& reply);
  void FinishRename(const std::string& src, bool committed,
                    const Status& abort_status);

  /// Called on becoming active: re-drives whatever the journal says was in
  /// flight (outbound migrations roll forward past cutover or abort before
  /// it; inbound migrations arm the watchdog; rename intents re-send).
  void ResumeShardState();
  void ResetShardVolatileState();

  // --- checkpointing ----------------------------------------------------------
  /// One image being written to the SSP, shared by its chunk callbacks.
  struct CheckpointWrite {
    std::string file;
    SerialNumber sn = 0;
    std::vector<char> bytes;
    std::uint64_t logical = 0;  ///< bytes × image_inflation
    std::size_t chunks = 1;
  };
  void WriteCheckpoint();
  /// Appends chunk `i` of `write`; the append's completion writes the next.
  void WriteCheckpointChunk(std::shared_ptr<const CheckpointWrite> write,
                            std::size_t i);

  // --- helpers ---------------------------------------------------------------
  std::string JournalFile() const {
    return "g" + std::to_string(options_.group) + "/journal";
  }
  std::string ImageFile(SerialNumber sn) const;
  void BecomeRole(ServerState role);

  /// One-shot fetches (journal backfill, step-5 catch-up, cross-group tx
  /// legs): callers have their own recovery story, so no retries here. The
  /// shard protocol's legs reuse its attempt timeout (mds_shard.cpp).
  static constexpr net::RpcPolicy kFetchRpc{
      .attempt_timeout = kSecond,
      .max_attempts = 1,
  };

  // --- immutable wiring ------------------------------------------------------
  MdsOptions options_;
  NodeId coord_;
  GroupDirectory* directory_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  std::unique_ptr<storage::SspClient> ssp_;
  std::vector<NodeId> members_;
  Rng rng_;

  // --- role & view ----------------------------------------------------------
  ServerState role_ = ServerState::kDown;
  /// True when this (possibly deposed) server holds batches that were
  /// acknowledged locally but never made it to any standby or the SSP.
  bool dirty_ = false;
  coord::GroupView view_;
  FenceToken fence_ = 0;  ///< valid while this node holds the lock

  // --- namespace ----------------------------------------------------------
  fsns::Tree tree_;
  fsns::BlockMap blocks_;
  SerialNumber last_sn_ = 0;
  SerialNumber committed_sn_ = 0;
  SimTime cpu_free_at_ = 0;

  // --- active-side sync state ---------------------------------------------
  std::unique_ptr<journal::Writer> writer_;
  struct PendingSync {
    std::shared_ptr<const journal::Batch> batch;
    std::set<NodeId> awaiting;  ///< standbys not yet acked
    int acks = 0;               ///< successful standby replications
    bool ssp_done = false;
    bool ssp_ok = false;
    bool completed = false;
    SimTime begin = 0;
    obs::TraceRecorder::Span span;
  };
  /// 2PC rounds in flight, by sn; never more than kCommitWindow (four: the
  /// window sweep is in docs/PERFORMANCE.md §3).
  std::map<SerialNumber, PendingSync> pending_sync_;
  static constexpr std::size_t kCommitWindow = 4;
  bool finalizing_syncs_ = false;  ///< re-entrancy guard
  std::map<TxId, std::vector<ReplyFn>> pending_replies_;
  std::set<NodeId> sync_targets_;  ///< peers included in 2PC
  std::deque<std::shared_ptr<const journal::Batch>> recent_batches_;
  static constexpr std::size_t kRecentBatchCap = 2048;
  int inflight_tx_ = 0;
  std::deque<std::pair<std::shared_ptr<const ClientRequestMsg>, ReplyFn>>
      tx_queue_;
  static constexpr int kTxWindow = 3;

  // --- standby-side intake ---------------------------------------------------
  std::map<SerialNumber, std::shared_ptr<const journal::Batch>>
      pending_batches_;
  bool backfill_inflight_ = false;

  // --- active-side client-cache leases ----------------------------------------
  /// Volatile grant table: leased directory -> holder node -> grant. Never
  /// persisted or replicated — a successor active starts lease-free, which
  /// is safe because no grant may outlive the granter's coordination
  /// session (see kLeaseTtl).
  struct LeaseGrant {
    std::uint64_t id = 0;
    SimTime expire_at = 0;
  };
  std::map<std::string, std::map<NodeId, LeaseGrant>> leases_;
  std::size_t lease_count_ = 0;
  std::uint64_t next_lease_id_ = 0;
  /// Mutation reply barriers: a conflicting mutation's client ack is held
  /// until every revoked holder acked (fast path) or the latest revoked
  /// grant expired (TTL backstop), so no client can observe the mutation
  /// complete while a stale cached copy is still servable somewhere.
  /// A migration cutover's barrier sits here too, under its migration id.
  std::map<TxId, LeaseBarrier> lease_barriers_;

  // --- standby-side parked reads ---------------------------------------------
  /// Reads whose min_sn is slightly ahead of last_sn_, keyed by the sn they
  /// are waiting for; drained as batches apply, bounced on timeout or role
  /// change. Volatile: cleared on crash like every queue here.
  struct ParkedRead {
    std::shared_ptr<const ClientRequestMsg> req;
    ReplyFn reply;
    std::uint64_t token = 0;  ///< identifies the entry to its timeout timer
  };
  std::multimap<SerialNumber, ParkedRead> parked_reads_;
  std::uint64_t parked_token_seq_ = 0;

  // --- election/upgrade state -------------------------------------------------
  bool election_in_progress_ = false;
  bool upgrade_in_progress_ = false;
  int join_retries_ = 0;  ///< feeds kJoinRetry's backoff; reset on success
  FailoverTrace trace_;
  std::deque<std::pair<std::shared_ptr<const ClientRequestMsg>, ReplyFn>>
      buffered_requests_;

  // --- renewing state ---------------------------------------------------------
  // Active side.
  NodeId renew_target_ = kInvalidNode;
  std::unique_ptr<sim::PeriodicTimer> renew_scan_timer_;
  // Junior side (volatile cursor; resumable across *active* failures).
  struct RenewCursor {
    bool running = false;
    RenewMode mode = RenewMode::kJournalOnly;
    std::string image_file;
    SerialNumber image_sn = 0;
    std::size_t image_next_index = 0;
    std::vector<char> image_bytes;
    SerialNumber target_sn = 0;
  };
  RenewCursor renew_;
  std::unique_ptr<sim::PeriodicTimer> renew_progress_timer_;

  // --- shard state -------------------------------------------------------------
  /// Current partition map, seeded from MdsOptions::partition_map; servers
  /// adopt newer maps from coordination-service publications.
  shard::PartitionMap map_;
  /// Volatile per-slot engine state on the *source* active. The durable
  /// truth (begun/cutover/ended/aborted) lives in the journal via the
  /// tree's ShardState; a drive only exists while this process is driving.
  struct MigrationDrive {
    TxId migration_id = 0;
    GroupId dst = 0;
    std::vector<std::vector<journal::LogRecord>> chunks;
    std::size_t next_chunk = 0;
    std::uint32_t next_seq = 0;
    bool capturing = false;  ///< record mutated slot paths into `dirty`
    bool fence = false;      ///< cutover: bounce writes for this slot
    std::set<std::string> dirty;
    MigrationStats stats;
  };
  std::map<std::uint32_t, MigrationDrive> drives_;
  /// Volatile side of a pending cross-group rename this active coordinates,
  /// keyed by source path (the durable intent is in the tree). Holds the
  /// client reply while the commit RPC runs.
  struct RenameDrive {
    ReplyFn reply;  ///< may be null after crash-resume (client already lost)
  };
  std::map<std::string, RenameDrive> rename_drives_;
  std::vector<MigrationStats> migration_stats_;

  // --- checkpoint state -------------------------------------------------------
  std::unique_ptr<sim::PeriodicTimer> checkpoint_timer_;
  std::optional<std::pair<std::string, SerialNumber>> latest_image_;

  Counters counters_;

  // --- observability ----------------------------------------------------------
  // Spans over the failover/renewing machinery; the step helpers keep one
  // span open per sequential stage, while buffer/switch spans overlap them.
  void StartStep(std::string step_name);
  void EndUpgradeSpans(bool ok);
  void StartRenewPhase(std::string phase);
  void EndRenewSpan(const char* outcome);

  obs::Observability* obs_;
  struct MetricHandles {
    obs::Counter* ops_served;
    obs::Counter* mutations;
    obs::Counter* reads;
    obs::Counter* batches_synced;
    obs::Counter* batches_applied;
    obs::Counter* duplicate_batches;
    obs::Counter* elections_won;
    obs::Counter* elections_lost;
    obs::Counter* renews_completed;
    obs::Counter* fenced_rejections;
    obs::Counter* buffered_during_upgrade;
    obs::Counter* standby_reads_served;
    obs::Counter* standby_reads_parked;
    obs::Counter* standby_reads_bounced;
    obs::Counter* shard_bounces;
    obs::Counter* leases_granted;
    obs::Counter* leases_revoked;
    obs::Counter* lease_replies_held;
    obs::Counter* lease_barrier_expiries;
    obs::Counter* migrations_completed;
    obs::Counter* cross_group_renames;
    obs::Histogram* sync_batch_ns;
    obs::Histogram* batch_records;
    obs::Histogram* resolve_ns;
    obs::Histogram* standby_read_staleness_sn;
    obs::Gauge* last_sn;
  } m_{};
  obs::TraceRecorder::Span election_span_;
  obs::TraceRecorder::Span switch_span_;
  obs::TraceRecorder::Span step_span_;
  obs::TraceRecorder::Span buffer_span_;
  obs::TraceRecorder::Span renew_span_;
  obs::TraceRecorder::Span renew_phase_span_;
  obs::TraceRecorder::Span checkpoint_span_;
  FailoverTraceLog* failover_log_;
};

}  // namespace mams::core
