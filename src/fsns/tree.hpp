// The in-memory namespace: an inode tree with deterministic mutation,
// journal replay, image save/load, and a structural fingerprint used by the
// property tests ("standby state equals active state at quiescence").
//
// Determinism contract: applying the same sequence of LogRecords to two
// empty trees yields byte-identical images and equal Fingerprint() values —
// inode ids come from a counter carried in the image, timestamps come from
// the records, and every walk whose order can be observed (listing, image,
// fingerprint, migration snapshot) visits a directory's entries through
// Inode::SortedChildren, never in the child index's hash order.
//
// One op path: a client mutation is its journal record. The active runs
// the record through Execute, replicas run the same record through Apply,
// and both reach the same op switch.
//
// Duplicate suppression: Execute and Apply remember every client op they
// apply (a bounded window of op_seqs per client). A server asks
// IsDuplicate before executing a request and answers a resend as a success
// without executing it again. This is what makes client retries across
// failover idempotent (Section III.C step 4 discusses the server-side
// analogue for journal batches).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "journal/record.hpp"

namespace mams::fsns {

/// Transparent string hash so unordered containers keyed by std::string
/// accept std::string_view lookups without materializing a temporary.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// A directory's entries: child name -> inode id, looked up by string_view.
using ChildIndex =
    std::unordered_map<std::string, InodeId, StringViewHash, std::equal_to<>>;

/// One namespace entry. Every replica holds one per file and directory, so
/// its size is paid once per inode per replica; the narrow fields sit at
/// the end, where they pack into one word.
struct Inode {
  InodeId id = kInvalidInode;
  InodeId parent = kInvalidInode;
  std::string name;
  std::string owner = "hdfs";        ///< "user:group"
  SimTime mtime = 0;
  std::vector<BlockId> blocks;       ///< files only

  // A directory's entries live in one hash index: O(1) heterogeneous
  // string_view lookups on the resolve hot path, no sorted twin. The index
  // is allocated by the first AddChild, so a file (and a directory that
  // never had a child) carries a null pointer rather than a container.
  // Hash order must never be observed: ordered walks use SortedChildren.
  std::unique_ptr<ChildIndex> child_index;  ///< dirs only; null until used

  std::uint32_t replication = 1;
  std::uint16_t permission = 0644;   ///< POSIX-style bits (HDFS FsPermission)
  bool is_dir = false;
  bool complete = true;              ///< files: closed vs under construction

  const InodeId* FindChild(std::string_view name_sv) const {
    if (child_index == nullptr) return nullptr;
    auto it = child_index->find(name_sv);
    return it == child_index->end() ? nullptr : &it->second;
  }
  void AddChild(const std::string& child_name, InodeId child_id) {
    if (child_index == nullptr) child_index = std::make_unique<ChildIndex>();
    child_index->emplace(child_name, child_id);
  }
  void RemoveChild(const std::string& child_name) {
    if (child_index != nullptr) child_index->erase(child_name);
  }
  /// The directory's (name, id) entries sorted by name — the only order in
  /// which the index may be observed. The views alias the index's keys and
  /// stay valid until the directory's entries change.
  std::vector<std::pair<std::string_view, InodeId>> SortedChildren() const;
};

struct FileInfo {
  std::string path;
  bool is_dir = false;
  std::uint32_t replication = 1;
  std::uint16_t permission = 0644;
  std::string owner = "hdfs";
  SimTime mtime = 0;
  std::uint64_t block_count = 0;
  bool complete = true;
};

class Tree {
 public:
  Tree();

  // --- queries (never journaled) -----------------------------------------
  Result<FileInfo> GetFileInfo(std::string_view path) const;
  Result<std::vector<std::string>> ListDir(std::string_view path) const;
  bool Exists(std::string_view path) const;
  const Inode* FindInode(std::string_view path) const;
  const Inode* inode(InodeId id) const;

  std::size_t inode_count() const noexcept { return inodes_.size(); }
  std::uint64_t file_count() const noexcept { return file_count_; }

  // --- execution ----------------------------------------------------------
  /// Executes one client mutation, described by the record it will be
  /// journaled as, and returns that record on success. The record carries
  /// the op, its arguments, the caller's timestamp and the client op id;
  /// execution fills in what it decides (the kAddBlock block id and the
  /// inode ids it draws) and remembers the client op. Callers answer a
  /// resend (IsDuplicate) before executing it. Shard and rename records
  /// are not client ops and are refused: they only enter through Apply.
  Result<journal::LogRecord> Execute(journal::LogRecord record);
  /// Executes a kCreate record (preloads build namespaces with it).
  Result<journal::LogRecord> Create(std::string_view path,
                                    std::uint32_t replication, SimTime mtime,
                                    ClientOpId client);

  // --- replay ---------------------------------------------------------------
  /// Applies a journal record from the active (standby/junior path). Every
  /// replayer calls this once per record, in record (txid) order; a record
  /// whose txid is already folded in is skipped. Replay is forgiving about
  /// client-visible errors: a record journaled by the active always
  /// applied successfully there, so failure here means state divergence
  /// and returns Internal.
  Status Apply(const journal::LogRecord& record);

  /// Highest txid folded into this tree (from mutations or replay).
  TxId last_txid() const noexcept { return last_txid_; }
  void set_last_txid(TxId txid) noexcept { last_txid_ = txid; }

  // --- image ---------------------------------------------------------------
  std::vector<char> SaveImage() const;
  Status LoadImage(const std::vector<char>& bytes);

  /// Structural fingerprint covering the whole tree + dedup table; equal
  /// fingerprints imply (w.h.p.) equal namespaces.
  std::uint64_t Fingerprint() const;

  /// Clears everything back to an empty root (junior formats before a full
  /// image fetch).
  void Reset();

  // --- duplicate suppression ------------------------------------------------
  // A client may have several operations in flight at once and the network
  // may reorder them, so "largest seq seen" is not enough: the table keeps
  // a bounded window of recently applied seqs per client. Anything older
  // than the window is assumed applied (clients never have that many
  // concurrent ops).
  struct ClientEntry {
    std::uint64_t max_seq = 0;
    std::set<std::uint64_t> recent;  ///< applied seqs in (max_seq-W, max_seq]
  };
  static constexpr std::uint64_t kDedupWindow = 128;

  /// True when <client, op_seq> was already applied.
  bool IsDuplicate(ClientOpId client) const;

  /// Read access to the dedup table (wholesale transfer during migration;
  /// iteration order is not deterministic — callers must sort).
  const std::unordered_map<std::uint64_t, ClientEntry>& client_table() const {
    return client_table_;
  }

  // --- shard migration state -------------------------------------------------
  // Durable bookkeeping for the shard subsystem, replicated as part of the
  // tree itself: every replica (standby, junior, promoted active) derives
  // migration and two-group transaction progress from its journal and
  // image alone, so a failover never forgets an in-flight migration.
  // Updated exclusively by Apply() on the kShard*/kTx* records; serialized
  // in the image and folded into the fingerprint.
  struct ShardState {
    struct Outbound {
      TxId migration_id = 0;
      GroupId dst_group = 0;
      bool cutover = false;
    };
    struct Inbound {
      TxId migration_id = 0;
      GroupId from_group = 0;
    };
    /// A prepared two-group transaction, keyed by the path whose entry
    /// this group holds (a rename's source, a mkdir's directory).
    struct TxIntent {
      journal::OpCode op = journal::OpCode::kRename;  ///< or kMkdir
      std::string peer_path;  ///< what the peer installs: rename dst, or
                              ///< the mkdir path itself
      GroupId peer_group = 0;
      ClientOpId client;
      SimTime mtime = 0;
    };
    struct History {
      TxId migration_id = 0;
      bool ended = false;  ///< true: rolled forward; false: aborted
    };
    std::set<std::uint32_t> acquired;      ///< slots owned beyond the map
    std::set<std::uint32_t> migrated_out;  ///< slots given away (stale map)
    std::map<std::uint32_t, Outbound> outbound;  ///< migrations we source
    std::map<std::uint32_t, Inbound> inbound;    ///< migrations we receive
    std::map<std::string, TxIntent> tx_intents;
    std::map<std::uint32_t, History> history;    ///< finished, by slot
  };
  const ShardState& shard() const noexcept { return shard_; }

  /// Deterministic DFS over every inode except the root, with the full path
  /// materialized (directories before their children, children in sorted
  /// order). Used by the migration snapshot.
  void ForEachNode(
      const std::function<void(const std::string&, const Inode&)>& fn) const;

 private:
  const Inode* Resolve(std::string_view path) const;
  Inode* ResolveMutable(std::string_view path);

  /// Inode ids are normally drawn from `next_inode_`. Ids are fingerprinted
  /// and serialized in the image, so execution *records* its draws
  /// (`alloc_trace_`, see Execute) into LogRecord::inode_ids, and replay
  /// *consumes* them (`alloc_script_`, see Apply) instead of the counter,
  /// exactly as kAddBlock already carries its block id. The counter is
  /// bumped past each scripted id and still serves records without ids
  /// (shard installs, legacy tests).
  ///
  /// A scripted id that is already live is replaced by a counter draw. A
  /// healthy replica never holds one (the active drew it fresh from the
  /// same state); a replica replaying a sabotaged history (checker
  /// mutations) can, and reusing it would link the live inode into a
  /// second place in the tree, possibly under itself.
  InodeId AllocateInode() {
    InodeId id;
    if (alloc_script_ != nullptr && alloc_script_pos_ < alloc_script_->size()) {
      id = (*alloc_script_)[alloc_script_pos_++];
      if (id >= next_inode_) next_inode_ = id + 1;
      if (inodes_.contains(id)) id = next_inode_++;
    } else {
      id = next_inode_++;
    }
    alloc_trace_.push_back(id);
    return id;
  }

  /// Remembers a successfully applied client op for duplicate suppression.
  void RememberApplied(ClientOpId client);

  /// The op switch Execute and Apply share: runs `record` against the
  /// tree without touching the dedup table or the txid cursor.
  Status Run(const journal::LogRecord& record);

  // Mutation cores, one per op in Run's switch.
  Status DoCreate(std::string_view path, std::uint32_t replication,
                  SimTime mtime);
  Status DoMkdir(std::string_view path, SimTime mtime);
  Status DoDelete(std::string_view path, SimTime mtime);
  Status DoRename(std::string_view src, std::string_view dst, SimTime mtime);
  Status DoSetReplication(std::string_view path, std::uint32_t replication,
                          SimTime mtime);
  Status DoAddBlock(std::string_view path, BlockId block, SimTime mtime);
  Status DoCompleteFile(std::string_view path, SimTime mtime);
  Status DoSetOwner(std::string_view path, std::string_view owner,
                    SimTime mtime);
  Status DoSetPermission(std::string_view path, std::uint16_t permission,
                         SimTime mtime);
  Status DoSetTimes(std::string_view path, SimTime mtime);

  // Shard-record cores (idempotent upserts / erases — see record.hpp).
  Status DoInstallFile(const journal::LogRecord& record);
  Status DoInstallDir(const journal::LogRecord& record);
  Status DoErase(std::string_view path, SimTime mtime);
  /// Removes every *file* whose entry hashes to `slot`; ghost directories
  /// stay behind (other slots' files may live under them).
  void DropSlotFiles(std::uint32_t slot, std::uint32_t slot_count,
                     SimTime mtime);
  /// Applies one shard/rename control record to shard_.
  Status ApplyShardControl(const journal::LogRecord& record);

  void CountInode(const Inode& inode, int delta);

  std::unordered_map<InodeId, Inode> inodes_;
  InodeId next_inode_ = kRootInode + 1;
  BlockId next_block_ = 1;
  TxId last_txid_ = 0;
  std::uint64_t file_count_ = 0;
  std::unordered_map<std::uint64_t, ClientEntry> client_table_;
  ShardState shard_;

  /// Inode ids drawn while the current op executes (cleared per op); on a
  /// successful mutation they move into the returned record's inode_ids.
  std::vector<InodeId> alloc_trace_;
  /// Replay script: ids the active recorded for the record currently being
  /// applied. Null/exhausted falls back to the counter.
  const std::vector<InodeId>* alloc_script_ = nullptr;
  std::size_t alloc_script_pos_ = 0;
};

}  // namespace mams::fsns
