// Journal (edit log) records. Every namespace mutation the active applies
// is described by one LogRecord; standbys and juniors replay records to
// converge on the active's state, so a record carries everything needed for
// deterministic replay: the op, its arguments, the timestamp the active
// used, any ids the active allocated (blocks), and the client op id for
// duplicate suppression after resends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace mams::journal {

enum class OpCode : std::uint8_t {
  kCreate = 1,
  kMkdir = 2,
  kDelete = 3,
  kRename = 4,
  kSetReplication = 5,
  kAddBlock = 6,
  kCompleteFile = 7,
  // Attribute operations (HDFS setOwner/setPermission/setTimes). They
  // reuse existing record fields: owner travels in path2 ("user:group"),
  // permission bits in replication, times in mtime.
  kSetOwner = 8,
  kSetPermission = 9,
  kSetTimes = 10,
  // Shard migration records (src/shard subsystem). Install records are
  // idempotent upserts so a retried transfer chunk re-applies cleanly;
  // migration control records update the tree's ShardState so that every
  // replica (standby, junior, promoted active) reconstructs migration
  // progress from its journal/image alone.
  kShardInstallFile = 11,   ///< upsert file at dst; path2=owner, block packs
                            ///< permission<<2 | complete<<1
  kShardInstallDir = 12,    ///< upsert directory attributes at dst
  kShardInstallDedup = 13,  ///< transfer one client dedup entry to dst
  kShardErase = 14,         ///< delta-capture delete at dst (no-op if absent)
  kShardMigrateBegin = 15,  ///< src: block=slot, replication=dst group;
                            ///< this record's txid is the migration id
  kShardMigrateCutover = 16,  ///< src: replicated cutover fence
  kShardMigrateEnd = 17,      ///< src: drop slot files; block=slot,
                              ///< replication=slot_count
  kShardMigrateAbort = 18,    ///< src: migration abandoned
  kShardAcquire = 19,       ///< dst: owns slot from now on; block=slot
  kShardDiscard = 20,       ///< dst: drop half-received slot; block=slot,
                            ///< replication=slot_count
  kShardInboundBegin = 21,  ///< dst: first chunk seen; block=slot,
                            ///< replication=src group, mtime=migration id
  // Two-group transaction records (ShardEngine's TwoGroupOp rows).
  kTxIntent = 22,  ///< entry group: path=the entry (rename source, mkdir
                   ///< path), path2=the path the peer installs,
                   ///< replication=peer group, block=the row's op
                   ///< (kRename/kMkdir), client=real client
  kTxCommit = 23,  ///< peer group: entry installed; dedup point
  kTxFinish = 24,  ///< entry group: intent resolved, remember client
  kTxAbort = 25,   ///< entry group: intent abandoned
};

const char* OpCodeName(OpCode op) noexcept;

/// True for the ten ops a client request executes as (kCreate..kSetTimes);
/// the shard and transaction records after them are server bookkeeping.
constexpr bool IsClientOp(OpCode op) noexcept {
  return op >= OpCode::kCreate && op <= OpCode::kSetTimes;
}

struct LogRecord {
  TxId txid = 0;
  OpCode op = OpCode::kCreate;
  std::string path;        ///< primary target
  std::string path2;       ///< rename destination
  std::uint32_t replication = 1;
  BlockId block = 0;       ///< id allocated by the active for kAddBlock
  SimTime mtime = 0;       ///< active's clock at apply time (replayed as-is)
  ClientOpId client;       ///< for idempotent retry handling
  /// Inode ids the active allocated while executing this op, in allocation
  /// order (create/mkdir chains allocate one per materialized component).
  /// Replayers consume these instead of their local counter, so a
  /// replica's inode ids never depend on its counter having tracked the
  /// active's draws one for one.
  std::vector<InodeId> inode_ids;

  LogRecord() = default;
  LogRecord(const LogRecord& other);
  LogRecord& operator=(const LogRecord& other);
  LogRecord(LogRecord&&) noexcept = default;
  LogRecord& operator=(LogRecord&&) noexcept = default;

  void Serialize(ByteWriter& out) const;
  static Result<LogRecord> Deserialize(ByteReader& in);

  /// Approximate serialized size without materializing bytes (batch sizing).
  /// The second 1 is the reserved byte after the op code.
  std::size_t EncodedSize() const noexcept {
    return 8 + 1 + 1 + 4 + path.size() + 4 + path2.size() + 4 + 8 + 8 + 16 +
           4 + 8 * inode_ids.size();
  }
};

/// Process-wide count of LogRecord copy constructions/assignments (the
/// simulator is single-threaded, so a plain counter suffices). The batch
/// hot path — append, seal, replicate — is supposed to move records;
/// `journal_test.cpp` pins an upper bound on this so a stray by-value copy
/// in that path fails a test instead of silently taxing every mutation.
std::uint64_t LogRecordCopies() noexcept;

/// A batch of records flushed together. The pair <sn, first_txid> is the
/// paper's journal descriptor; the checksum covers the serialized records.
struct Batch {
  SerialNumber sn = 0;
  TxId first_txid = 0;
  std::vector<LogRecord> records;
  std::uint64_t checksum = 0;

  std::vector<char> Serialize() const;
  /// Serialize() that also stores the computed checksum in `checksum`:
  /// sealing a batch yields the in-memory header and the wire bytes in one
  /// serialization pass (the writer hands both to its sink, so the SSP
  /// append reuses the bytes instead of serializing again).
  std::vector<char> SealAndSerialize();
  static Result<Batch> Deserialize(const std::vector<char>& bytes);

  std::size_t EncodedSize() const noexcept {
    std::size_t n = 8 + 8 + 8 + 4;
    for (const auto& r : records) n += r.EncodedSize();
    return n;
  }
};

}  // namespace mams::journal
