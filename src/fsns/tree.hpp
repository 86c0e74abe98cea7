// The in-memory namespace: an inode tree with deterministic mutation,
// journal replay, image save/load, and a structural fingerprint used by the
// property tests ("standby state equals active state at quiescence").
//
// Determinism contract: applying the same sequence of LogRecords to two
// empty trees yields byte-identical images and equal Fingerprint() values —
// inode ids come from a counter carried in the image, timestamps come from
// the records, and every walk whose order can be observed (listing, image,
// fingerprint, migration snapshot, lease fill) visits a directory's entries
// through Tree::SortedChildren, never in the child index's hash order.
//
// Storage: inodes live in a chunked slot table (an Inode's address is
// stable while it lives, and a freed slot is reused before the table
// grows), found by id through a flat id index and by name through each
// directory's child index. Both indexes hold slot numbers only: a name is
// stored once, in its own inode, and an owner is an id into a per-tree
// intern table. Which slot an inode occupies depends on the history that
// built the tree (a loaded image packs them afresh), so, like hash order,
// slot order is never observed.
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

/// An open-addressing hash index whose entries are slot numbers of the
/// tree's slot table, each beside a 32-bit hash of its key. The keys
/// themselves are not stored: a lookup whose hash matches asks the caller
/// whether the slot's inode is the one sought (its `name` for a directory's
/// entries, its `id` for the tree's id index). So a name lives once, in the
/// child's own inode.
///
/// Linear probing at a load of at most 3/4; erase shifts the probe run back
/// rather than leaving tombstones, so capacity follows the live peak. One
/// heap block holds a header entry and the table; an index that never held
/// an entry (a file's `children`) is one null pointer.
class SlotIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  SlotIndex() = default;
  SlotIndex(const SlotIndex& other);
  SlotIndex& operator=(const SlotIndex& other);
  SlotIndex(SlotIndex&&) noexcept = default;
  SlotIndex& operator=(SlotIndex&&) noexcept = default;

  std::size_t size() const noexcept { return block_ ? block_[0].slot : 0; }
  /// Entries the table has room for (0 until the first Insert).
  std::size_t capacity() const noexcept {
    return block_ ? std::size_t{block_[0].hash} + 1 : 0;
  }

  /// The slot stored under `hash` for which `is_key(slot)` holds, or kNone.
  template <class IsKey>
  std::uint32_t Find(std::uint32_t hash, IsKey&& is_key) const {
    if (!block_) return kNone;
    const std::uint32_t mask = block_[0].hash;
    for (std::uint32_t i = hash & mask;; i = (i + 1) & mask) {
      const Entry& e = block_[i + 1];
      if (e.slot == kNone) return kNone;
      if (e.hash == hash && is_key(e.slot)) return e.slot;
    }
  }
  /// Adds `slot` under `hash`; the caller has checked its key is absent.
  void Insert(std::uint32_t slot, std::uint32_t hash);
  /// Removes `slot`, which was inserted under `hash`.
  void Erase(std::uint32_t slot, std::uint32_t hash);
  /// Calls fn(slot) for every entry, in table order. That order depends on
  /// the insertion history, so no caller may let it be observed.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 1; i <= capacity(); ++i) {
      if (block_[i].slot != kNone) fn(block_[i].slot);
    }
  }

 private:
  struct Entry {
    std::uint32_t slot;
    std::uint32_t hash;
  };
  /// block_[0] is the header {size, mask}; the table is block_[1..mask+1].
  std::unique_ptr<Entry[]> block_;
};

/// One namespace entry. Every replica holds one per file and directory, so
/// its size is paid once per inode per replica; the narrow fields sit at
/// the end, where they pack into two words.
struct Inode {
  InodeId id = kInvalidInode;  ///< kInvalidInode marks a free slot
  InodeId parent = kInvalidInode;
  std::string name{};                ///< the only copy of the entry's name
  SimTime mtime = 0;
  std::vector<BlockId> blocks{};     ///< files only
  /// A directory's entries, looked up by the child's name (Tree::Child).
  /// Its order must never be observed: ordered walks use SortedChildren.
  SlotIndex children{};              ///< dirs only; no storage until used

  std::uint32_t replication = 1;
  std::uint32_t owner_id = 0;        ///< Tree::OwnerOf; 0 is "hdfs"
  std::uint16_t permission = 0644;   ///< POSIX-style bits (HDFS FsPermission)
  bool is_dir = false;
  bool complete = true;              ///< files: closed vs under construction
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
  /// An empty namespace. A Tree copies as a value: the copy is an
  /// independent replica of the whole state, as when a standby is preloaded
  /// from its active's tree.
  Tree();

  // --- queries (never journaled) -----------------------------------------
  Result<FileInfo> GetFileInfo(std::string_view path) const;
  /// `node`'s attributes as GetFileInfo answers with them, path left
  /// empty: the one place a stat's fields are read off an inode (lease
  /// fills and patches use it too).
  FileInfo InfoOf(const Inode& node) const;
  Result<std::vector<std::string>> ListDir(std::string_view path) const;
  bool Exists(std::string_view path) const;
  const Inode* FindInode(std::string_view path) const;
  /// `dir`'s entries sorted by name: the only order in which a directory
  /// may be observed. The pointers stay valid until the tree changes.
  std::vector<const Inode*> SortedChildren(const Inode& dir) const;
  const Inode* inode(InodeId id) const;
  /// The "user:group" string behind `node.owner_id`.
  const std::string& OwnerOf(const Inode& node) const {
    return owners_[node.owner_id];
  }

  std::size_t inode_count() const noexcept { return by_id_.size(); }
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
      journal::OpCode op = journal::OpCode::kRename;  ///< its TwoGroupOp row
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
  /// Reads the slot table's and id index's sizes in the storage tests.
  friend struct TreeStorageProbe;

  const Inode* Resolve(std::string_view path) const;
  Inode* ResolveMutable(std::string_view path);

  // --- storage ---------------------------------------------------------------
  /// Inodes per slot-table chunk; the table grows one chunk at a time.
  static constexpr std::uint32_t kSlotsPerChunk = 1024;
  Inode& Slot(std::uint32_t slot) {
    return chunks_[slot / kSlotsPerChunk][slot % kSlotsPerChunk];
  }
  const Inode& Slot(std::uint32_t slot) const {
    return chunks_[slot / kSlotsPerChunk][slot % kSlotsPerChunk];
  }
  /// The root is the first inode placed and never freed.
  const Inode& Root() const { return Slot(0); }
  Inode& Root() { return Slot(0); }
  /// Slot of the live inode `id`, or SlotIndex::kNone.
  std::uint32_t SlotOf(InodeId id) const;
  /// `dir`'s entry called `name`, or null.
  const Inode* Child(const Inode& dir, std::string_view name) const;
  Inode* Child(Inode& dir, std::string_view name) {
    return const_cast<Inode*>(std::as_const(*this).Child(dir, name));
  }
  /// Places a new inode `id` called `name` under `parent` (null only for
  /// the root itself) and returns it; the caller fills in the attributes.
  Inode& Place(InodeId id, Inode* parent, std::string_view name);
  /// Unlinks `node` from its parent and frees its whole subtree.
  void Remove(Inode& node);
  /// Id of `owner` in the intern table, adding it if new.
  std::uint32_t InternOwner(std::string_view owner);

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
      if (SlotOf(id) != SlotIndex::kNone) id = next_inode_++;
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

  /// The slot table: chunks of kSlotsPerChunk inodes, never resized, so an
  /// Inode never moves while it lives. `free_slots_` holds freed slots,
  /// reused (last freed first) before `slots_used_` grows into a new chunk.
  /// (A std::deque<Inode> would do the same job in blocks of four inodes,
  /// at about 9 more bytes per inode in allocator headers and its map.)
  std::vector<std::vector<Inode>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slots_used_ = 0;
  SlotIndex by_id_;  ///< every live inode's slot, keyed by id
  /// Owner intern table: owners_[Inode::owner_id], and its reverse. Entry 0
  /// is "hdfs". Owners are user:group pairs, few per namespace, so the
  /// table keeps every owner it has seen until Reset or LoadImage, as the
  /// HDFS NameNode's user and group serial numbers do.
  std::vector<std::string> owners_;
  std::unordered_map<std::string, std::uint32_t, StringViewHash,
                     std::equal_to<>>
      owner_ids_;
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
