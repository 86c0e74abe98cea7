// ShardEngine — partition-map adoption and enforcement, the journal-backed
// migration engine (both sides), and the two-group cross-group rename.
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
  bool OwnsSlotForRead(std::uint32_t slot) const;
  /// Return false after a shard bounce (current map attached) when this
  /// server must not serve the request; they also enforce the rename-intent
  /// fences and the migration-time structural restriction.
  bool AdmitRead(const ClientRequestMsg& req, const ReplyFn& reply);
  bool AdmitMutation(const ClientRequestMsg& req, const ReplyFn& reply);
  void Bounce(const ReplyFn& reply, const char* why);
  /// While a migration captures, notes mutated paths in its slot (shipped
  /// in the final chunk).
  void CaptureMigrationDelta(const journal::LogRecord& rec);

  Status StartMigration(std::uint32_t slot, GroupId dst);
  /// Destination side: chunks, and the activate/abort/query/rename legs.
  void HandleTransfer(const net::MessagePtr& msg, const ReplyFn& reply);
  void HandleControl(const net::MessagePtr& msg, const ReplyFn& reply);
  /// Coordinator side: intent -> destination commit -> finish.
  void StartCrossGroupRename(RequestPtr req, GroupId dst_group,
                             const ReplyFn& reply);
  /// On becoming active: outbound migrations roll forward past cutover or
  /// abort before it, inbound ones arm the watchdog, rename intents resend.
  void Resume();
  /// Step-down: drops the drives and fails the renames' waiting clients.
  void Abandon();

 private:
  /// Source-side engine state while this process drives a migration; the
  /// durable truth lives in the journal via the tree's ShardState.
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
  /// The client reply a coordinated rename holds while its commit leg runs
  /// (null after a crash-resume: the client is already gone).
  struct RenameDrive {
    ReplyFn reply;
  };

  bool OwnsSlotForWrite(std::uint32_t slot) const {
    auto it = drives_.find(slot);
    return OwnsSlotForRead(slot) && (it == drives_.end() || !it->second.fence);
  }
  /// Why this server must not write `slot` now, or null when it may.
  const char* WriteRefusal(std::uint32_t slot) const;
  /// Path touches a pending cross-group rename (src, dst, or an ancestor
  /// of a src) — such requests stall until the rename resolves.
  bool RenameFenced(const ClientRequestMsg& req) const;
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
    return it == drives_.end() || it->second.migration_id != migration_id;
  }

  /// The install record(s) reconstructing `node` at `path` (dir, or file
  /// plus its blocks); shared by snapshot, delta and rename commit.
  static void AppendInstallRecords(const std::string& path,
                                   const fsns::Inode& node,
                                   std::vector<journal::LogRecord>& out);
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
  /// While an inbound migration is pending, asks the source group what
  /// happened — covers a source that decided and crashed before telling us.
  void ArmInboundWatchdog(std::uint32_t slot);
  void SendRenameCommit(const std::string& src);
  void HandleRenameCommit(const std::shared_ptr<const ShardControlMsg>& ctl,
                          const ReplyFn& reply);
  void FinishRename(const std::string& src, bool committed,
                    const Status& abort_status);

  MdsServer& s_;
  shard::PartitionMap map_;  ///< newer maps arrive from coordination
  std::map<std::uint32_t, MigrationDrive> drives_;
  std::map<std::string, RenameDrive> rename_drives_;
  std::vector<MigrationStats> stats_;
};

}  // namespace mams::core
