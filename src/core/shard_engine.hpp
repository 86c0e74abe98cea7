// ShardEngine — partition-map adoption and enforcement, the journal-backed
// migration engine (both sides), and the two-group transaction that runs
// every cross-group mutation. The transaction is one protocol; what each op
// does at each of its steps is one row of a table (TwoGroupOp: rename and
// mkdir), so adding a two-group op adds a row, not a branch.
// Rebuilt with its server on a crash, which resets the map to the seed; the
// map survives role changes, since every role routes by it.
//
// Every transition that must survive a failover commits as a journal record
// before it takes visible effect. The drives only drive progress and belong
// to the active tenure: a step-down abandons them, and a promoted active
// rebuilds them from the tree's ShardState alone (Resume).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "net/rpc.hpp"
#include "shard/partition_map.hpp"

namespace mams::core {

class MdsServer;

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

class ShardEngine {
 public:
  /// Starts from the seed map (MdsOptions::partition_map).
  explicit ShardEngine(MdsServer& server);
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  const shard::PartitionMap& map() const noexcept { return map_; }
  const std::vector<MigrationStats>& stats() const noexcept { return stats_; }
  void AdoptMap(std::uint64_t epoch, const std::vector<char>& bytes);
  void FetchMapFromCoord();
  /// Return false after a shard bounce (current map attached) when this
  /// server must not serve the request; they also enforce the transaction
  /// fences and the migration-time structural restriction, and
  /// AdmitMutation refuses a directory delete whose children live in
  /// another group.
  bool AdmitRead(const ClientRequestMsg& req, const ReplyFn& reply);
  bool AdmitMutation(const ClientRequestMsg& req, const ReplyFn& reply);
  /// While a migration captures, notes mutated paths in its slot (shipped
  /// in the final chunk).
  void CaptureMigrationDelta(const journal::LogRecord& rec);

  Status StartMigration(std::uint32_t slot, GroupId dst);
  /// The legs' receiving side: chunks, and the activate/abort/query/
  /// transaction-commit controls.
  void HandleTransfer(const net::MessagePtr& msg, const ReplyFn& reply);
  void HandleControl(const net::MessagePtr& msg, const ReplyFn& reply);
  /// Entry-group side (intent -> peer commit -> finish) of a mutation that
  /// commits at another group too: a rename's destination entry owner or a
  /// mkdir's container owner. False, with nothing done, when it commits
  /// here alone.
  bool StartTwoGroupTx(RequestPtr req, const ReplyFn& reply);
  /// On becoming active: outbound migrations roll forward past cutover or
  /// abort before it, inbound ones arm the watchdog, intents resend.
  void Resume();
  /// Step-down: drops the drives and fails the transactions' waiting
  /// clients.
  void Abandon();

 private:
  /// Source-side engine state while this process drives a migration; the
  /// durable truth lives in the journal via the tree's ShardState.
  struct MigrationDrive {
    std::vector<std::vector<journal::LogRecord>> chunks;
    std::size_t next_chunk = 0;
    std::uint32_t next_seq = 0;
    bool capturing = false;  ///< record mutated slot paths into `dirty`
    bool fence = false;      ///< cutover: bounce writes for this slot
    std::set<std::string> dirty;
    MigrationStats stats;  ///< also the migration's id and destination
  };
  /// One row per op that commits at two groups (see shard_engine.cpp).
  struct TwoGroupOp;

  bool OwnsSlotForRead(std::uint32_t slot) const;
  bool OwnsSlotForWrite(std::uint32_t slot) const {
    auto it = drives_.find(slot);
    return OwnsSlotForRead(slot) && (it == drives_.end() || !it->second.fence);
  }
  /// Why this server must not write `slot` now, or null when it may.
  const char* WriteRefusal(std::uint32_t slot) const;
  void Bounce(const ReplyFn& reply, const char* why);
  /// Bounces a request whose path touches a pending two-group transaction
  /// (its entry, an ancestor of it, or what the peer installs): such
  /// requests stall until the transaction resolves.
  bool BounceTxFenced(const ClientRequestMsg& req, const ReplyFn& reply);
  /// Journals one shard record, applies it to the tree, and notes it for a
  /// capturing migration. Returns its txid.
  TxId AppendShardRecord(journal::LogRecord rec);
  /// AppendShardRecord + seal + `done(ok)` once the batch commits; not
  /// active: `done(false)` at once.
  TxId JournalShardRecord(journal::LogRecord rec,
                          std::function<void(bool)> done);
  /// One shard-protocol leg to `group`'s current active as a single
  /// net::RpcCall: unlimited attempts at a flat `backoff`, a non-ok ack (or
  /// `hooks.retry_response`) retries, and it is cancelled once `stale()`
  /// holds or the active tenure it started in ended.
  template <class Ack>
  void SendLeg(GroupId group, net::MessagePtr msg, SimTime backoff,
               std::function<bool()> stale,
               std::function<void(const Ack&)> on_ack,
               net::RpcHooks hooks = {});
  /// The slot's drive is gone or now drives a different migration.
  bool MigrationStale(std::uint32_t slot, TxId migration_id) const {
    auto it = drives_.find(slot);
    return it == drives_.end() ||
           it->second.stats.migration_id != migration_id;
  }

  /// The install record(s) reconstructing `node` at `path` (dir, or file
  /// plus its blocks); shared by snapshot, delta and the transaction
  /// commit.
  void AppendInstallRecords(const std::string& path, const fsns::Inode& node,
                            std::vector<journal::LogRecord>& out) const;
  /// Whether a migration of `slot` carries `node` at `path`.
  bool MigratesWith(std::uint32_t slot, const std::string& path,
                    const fsns::Inode& node) const;
  void SendNextChunk(std::uint32_t slot);
  void StartCutover(std::uint32_t slot);
  void DrainThenShip(std::uint32_t slot, int polls_left);
  void ShipFinalChunk(std::uint32_t slot);
  void SendActivate(std::uint32_t slot);
  void PublishMapForSlot(std::uint32_t slot);
  void FinishMigration(std::uint32_t slot);
  void AbortOutbound(std::uint32_t slot);
  void RollForwardOutbound(std::uint32_t slot);
  MigrationOutcome AnswerMigrationQuery(std::uint32_t slot,
                                        TxId migration_id) const;
  /// Journals an inbound slot's verdict: kShardAcquire, or kShardDiscard.
  void JournalInboundVerdict(std::uint32_t slot, bool acquire,
                             std::function<void(bool)> done);
  /// While an inbound migration is pending, asks the source group what
  /// happened — covers a source that decided and crashed before telling us.
  void ArmInboundWatchdog(std::uint32_t slot);
  void SendTxCommit(const std::string& key);
  void HandleTxCommit(const std::shared_ptr<const ShardControlMsg>& ctl,
                      const ReplyFn& reply);
  /// On an ok `outcome` (the peer committed), journals this group's half
  /// and the finish; otherwise, or when that half fails, the abort. The
  /// client is answered with the outcome.
  void FinishTx(const std::string& key, Status outcome);

  MdsServer& s_;
  shard::PartitionMap map_;  ///< newer maps arrive from coordination
  std::map<std::uint32_t, MigrationDrive> drives_;
  /// By intent key: the client reply each two-group transaction holds while
  /// its commit leg runs (null after a crash-resume: the client is gone).
  std::map<std::string, ReplyFn> tx_drives_;
  std::vector<MigrationStats> stats_;
};

}  // namespace mams::core
