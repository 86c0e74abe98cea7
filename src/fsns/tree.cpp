#include "fsns/tree.hpp"

#include <algorithm>
#include <functional>

#include "fsns/partition.hpp"
#include "fsns/path.hpp"

namespace mams::fsns {

using journal::LogRecord;
using journal::OpCode;

namespace {

std::uint32_t NameHash(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

/// Fibonacci hashing: ids are drawn from a counter, and the multiply
/// spreads consecutive ones over the whole table.
std::uint32_t IdHash(InodeId id) {
  return static_cast<std::uint32_t>((id * 0x9e3779b97f4a7c15ull) >> 32);
}

}  // namespace

// --- SlotIndex ---------------------------------------------------------------

SlotIndex::SlotIndex(const SlotIndex& other) {
  if (other.block_ != nullptr) {
    const std::size_t n = other.capacity() + 1;
    block_ = std::make_unique_for_overwrite<Entry[]>(n);
    std::copy_n(other.block_.get(), n, block_.get());
  }
}

SlotIndex& SlotIndex::operator=(const SlotIndex& other) {
  if (this != &other) *this = SlotIndex(other);
  return *this;
}

void SlotIndex::Insert(std::uint32_t slot, std::uint32_t hash) {
  const std::size_t cap = capacity();
  if ((size() + 1) * 4 > cap * 3) {
    // Double (from 4) and re-place every entry by its stored hash.
    const std::unique_ptr<Entry[]> old = std::move(block_);
    const std::size_t grown = std::max<std::size_t>(4, cap * 2);
    block_ = std::make_unique_for_overwrite<Entry[]>(grown + 1);
    block_[0] = Entry{0, static_cast<std::uint32_t>(grown - 1)};
    std::fill_n(block_.get() + 1, grown, Entry{kNone, 0});
    for (std::size_t i = 1; i <= cap; ++i) {
      if (old[i].slot != kNone) Insert(old[i].slot, old[i].hash);
    }
  }
  const std::uint32_t mask = block_[0].hash;
  std::uint32_t i = hash & mask;
  while (block_[i + 1].slot != kNone) i = (i + 1) & mask;
  block_[i + 1] = Entry{slot, hash};
  ++block_[0].slot;
}

void SlotIndex::Erase(std::uint32_t slot, std::uint32_t hash) {
  if (block_ == nullptr) return;
  const std::uint32_t mask = block_[0].hash;
  std::uint32_t hole = hash & mask;
  for (;; hole = (hole + 1) & mask) {
    if (block_[hole + 1].slot == slot) break;
    if (block_[hole + 1].slot == kNone) return;  // absent
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home position lies after the hole (cyclically).
  for (std::uint32_t j = (hole + 1) & mask; block_[j + 1].slot != kNone;
       j = (j + 1) & mask) {
    const std::uint32_t home = block_[j + 1].hash & mask;
    if (((j - home) & mask) < ((j - hole) & mask)) continue;
    block_[hole + 1] = block_[j + 1];
    hole = j;
  }
  block_[hole + 1] = Entry{kNone, 0};
  --block_[0].slot;
}

// --- storage ----------------------------------------------------------------

Tree::Tree() { Reset(); }

void Tree::Reset() {
  chunks_.clear();
  free_slots_.clear();
  slots_used_ = 0;
  by_id_ = SlotIndex();
  owners_.assign(1, "hdfs");
  owner_ids_.clear();
  owner_ids_.emplace(owners_[0], 0);
  client_table_.clear();
  shard_ = ShardState{};
  alloc_trace_.clear();
  alloc_script_ = nullptr;
  alloc_script_pos_ = 0;
  Place(kRootInode, nullptr, "").is_dir = true;
  next_inode_ = kRootInode + 1;
  next_block_ = 1;
  last_txid_ = 0;
  file_count_ = 0;
}

std::uint32_t Tree::SlotOf(InodeId id) const {
  return by_id_.Find(IdHash(id),
                     [&](std::uint32_t slot) { return Slot(slot).id == id; });
}

const Inode* Tree::Child(const Inode& dir, std::string_view name) const {
  const std::uint32_t slot = dir.children.Find(
      NameHash(name),
      [&](std::uint32_t s) { return Slot(s).name == name; });
  return slot == SlotIndex::kNone ? nullptr : &Slot(slot);
}

Inode& Tree::Place(InodeId id, Inode* parent, std::string_view name) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_used_ == chunks_.size() * kSlotsPerChunk) {
      chunks_.emplace_back(kSlotsPerChunk);
    }
    slot = slots_used_++;
  }
  Inode& node = Slot(slot);
  node.id = id;
  node.name = name;
  by_id_.Insert(slot, IdHash(id));
  if (parent != nullptr) {
    node.parent = parent->id;
    parent->children.Insert(slot, NameHash(name));
  }
  return node;
}

void Tree::Remove(Inode& node) {
  const std::uint32_t top = SlotOf(node.id);
  if (const std::uint32_t up = SlotOf(node.parent); up != SlotIndex::kNone) {
    Slot(up).children.Erase(top, NameHash(node.name));
  }
  // The walk reads child indexes in table order: it only frees the
  // subtree, and which slot is freed first is never observed.
  std::vector<std::uint32_t> stack{top};
  while (!stack.empty()) {
    const std::uint32_t slot = stack.back();
    stack.pop_back();
    Inode& doomed = Slot(slot);
    doomed.children.ForEach(
        [&](std::uint32_t child) { stack.push_back(child); });
    CountInode(doomed, -1);
    by_id_.Erase(slot, IdHash(doomed.id));
    doomed = Inode{};
    free_slots_.push_back(slot);
  }
}

std::uint32_t Tree::InternOwner(std::string_view owner) {
  if (auto it = owner_ids_.find(owner); it != owner_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(owners_.size());
  owners_.emplace_back(owner);
  owner_ids_.emplace(owners_.back(), id);
  return id;
}

std::vector<const Inode*> Tree::SortedChildren(const Inode& dir) const {
  std::vector<const Inode*> sorted;
  sorted.reserve(dir.children.size());
  dir.children.ForEach(
      [&](std::uint32_t slot) { sorted.push_back(&Slot(slot)); });
  std::sort(sorted.begin(), sorted.end(),
            [](const Inode* a, const Inode* b) { return a->name < b->name; });
  return sorted;
}

// --- queries ----------------------------------------------------------------

const Inode* Tree::Resolve(std::string_view path) const {
  if (!IsValidPath(path)) return nullptr;
  // Zero-allocation walk: component cursor over the original string_view,
  // one probe of each directory's child index per component, and a pure
  // read of the tree (docs/PERFORMANCE.md §1 explains why there is no path
  // cache in front of it).
  const Inode* cur = &Root();
  for (std::string_view comp : PathComponents(path)) {
    if (!cur->is_dir) return nullptr;
    cur = Child(*cur, comp);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

Inode* Tree::ResolveMutable(std::string_view path) {
  return const_cast<Inode*>(Resolve(path));
}

const Inode* Tree::FindInode(std::string_view path) const {
  return Resolve(path);
}

const Inode* Tree::inode(InodeId id) const {
  const std::uint32_t slot = SlotOf(id);
  return slot == SlotIndex::kNone ? nullptr : &Slot(slot);
}

bool Tree::Exists(std::string_view path) const {
  return Resolve(path) != nullptr;
}

Result<FileInfo> Tree::GetFileInfo(std::string_view path) const {
  if (!IsValidPath(path)) {
    return Status::InvalidArgument("bad path: " + std::string(path));
  }
  const Inode* node = Resolve(path);
  if (node == nullptr) {
    return Status::NotFound(std::string(path));
  }
  FileInfo info = InfoOf(*node);
  info.path = std::string(path);
  return info;
}

FileInfo Tree::InfoOf(const Inode& node) const {
  return {.is_dir = node.is_dir,
          .replication = node.replication,
          .permission = node.permission,
          .owner = OwnerOf(node),
          .mtime = node.mtime,
          .block_count = node.blocks.size(),
          .complete = node.complete};
}

Result<std::vector<std::string>> Tree::ListDir(std::string_view path) const {
  const Inode* node = Resolve(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  if (!node->is_dir) {
    return Status::FailedPrecondition(std::string(path) + " is not a directory");
  }
  const std::vector<const Inode*> entries = SortedChildren(*node);
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const Inode* child : entries) names.push_back(child->name);
  return names;
}

// --- duplicate suppression ---------------------------------------------------

bool Tree::IsDuplicate(ClientOpId client) const {
  if (client.client_id == 0) return false;  // anonymous: no dedup
  auto it = client_table_.find(client.client_id);
  if (it == client_table_.end()) return false;
  const ClientEntry& entry = it->second;
  if (entry.max_seq >= kDedupWindow &&
      client.op_seq <= entry.max_seq - kDedupWindow) {
    return true;  // far older than any op still possibly in flight
  }
  return entry.recent.contains(client.op_seq);
}

void Tree::RememberApplied(ClientOpId client) {
  if (client.client_id == 0) return;
  auto& entry = client_table_[client.client_id];
  entry.recent.insert(client.op_seq);
  if (client.op_seq > entry.max_seq) entry.max_seq = client.op_seq;
  while (!entry.recent.empty() && entry.max_seq >= kDedupWindow &&
         *entry.recent.begin() <= entry.max_seq - kDedupWindow) {
    entry.recent.erase(entry.recent.begin());
  }
}

// --- mutation cores ------------------------------------------------------

Status Tree::DoCreate(std::string_view path, std::uint32_t replication,
                      SimTime mtime) {
  if (!IsValidPath(path) || path == "/") {
    return Status::InvalidArgument("bad path: " + std::string(path));
  }
  // One walk to the parent, then one probe of its child index: the same
  // answer as Resolve(path), without walking the shared prefix twice.
  const std::string_view parent_path = ParentDir(path);
  Inode* parent = ResolveMutable(parent_path);
  if (parent != nullptr && parent->is_dir &&
      Child(*parent, BaseName(path)) != nullptr) {
    return Status::AlreadyExists(std::string(path));
  }
  // HDFS create() semantics: missing ancestor directories are materialized.
  // This also lets a hash-partitioned group hold a file whose parent
  // directory entry is owned by a different group (the ancestors appear
  // here as non-authoritative "ghost" directories).
  if (parent == nullptr) {
    Status mk = DoMkdir(parent_path, mtime);
    if (!mk.ok()) return mk;
    parent = ResolveMutable(parent_path);
  }
  if (!parent->is_dir) {
    return Status::FailedPrecondition("parent is a file: " + std::string(path));
  }
  Inode& node = Place(AllocateInode(), parent, BaseName(path));
  node.replication = replication;
  node.mtime = mtime;
  node.complete = false;
  parent->mtime = mtime;
  ++file_count_;
  return Status::Ok();
}

Status Tree::DoMkdir(std::string_view path, SimTime mtime) {
  if (!IsValidPath(path)) {
    return Status::InvalidArgument("bad path: " + std::string(path));
  }
  if (path == "/") return Status::Ok();  // mkdirs("/") is a no-op success
  const Inode* existing = Resolve(path);
  if (existing != nullptr) {
    return existing->is_dir
               ? Status::Ok()  // HDFS mkdirs semantics: already-dir is OK
               : Status::AlreadyExists(std::string(path) + " is a file");
  }
  // Create missing ancestors (mkdir -p), walking down from the root with
  // the zero-allocation cursor; the failing prefix for the error message is
  // recovered from the cursor position instead of being built every step.
  Inode* cur = &Root();
  const PathComponents comps(path);
  for (auto it = comps.begin(); it != comps.end(); ++it) {
    const std::string_view comp = *it;
    if (Inode* child = Child(*cur, comp)) {
      if (!child->is_dir) {
        return Status::FailedPrecondition(
            std::string(path.substr(0, it.prefix_length())) + " is a file");
      }
      cur = child;
      continue;
    }
    Inode& dir = Place(AllocateInode(), cur, comp);
    dir.is_dir = true;
    dir.mtime = mtime;
    cur->mtime = mtime;
    cur = &dir;
  }
  return Status::Ok();
}

void Tree::CountInode(const Inode& inode, int delta) {
  if (!inode.is_dir) {
    file_count_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(file_count_) + delta);
  }
}

Status Tree::DoDelete(std::string_view path, SimTime mtime) {
  if (!IsValidPath(path) || path == "/") {
    return Status::InvalidArgument("cannot delete " + std::string(path));
  }
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  // Recursive delete (HDFS delete(path, true) semantics).
  Slot(SlotOf(node->parent)).mtime = mtime;
  Remove(*node);
  return Status::Ok();
}

Status Tree::DoRename(std::string_view src, std::string_view dst,
                      SimTime mtime) {
  if (!IsValidPath(src) || !IsValidPath(dst) || src == "/" ) {
    return Status::InvalidArgument("bad rename args");
  }
  if (src == dst) return Status::Ok();
  if (IsPrefixPath(src, dst)) {
    return Status::FailedPrecondition("cannot rename under itself");
  }
  Inode* node = ResolveMutable(src);
  if (node == nullptr) return Status::NotFound(std::string(src));
  if (Resolve(dst) != nullptr) {
    return Status::AlreadyExists(std::string(dst));
  }
  Inode* new_parent = ResolveMutable(ParentDir(dst));
  if (new_parent == nullptr || !new_parent->is_dir) {
    return Status::NotFound("destination parent of " + std::string(dst));
  }
  const std::uint32_t slot = SlotOf(node->id);
  Inode& old_parent = Slot(SlotOf(node->parent));
  old_parent.children.Erase(slot, NameHash(node->name));
  // Parent mtimes merge by max rather than overwrite, so a rename never
  // moves a directory's mtime backwards. Record mtimes are monotonic in
  // txid order, so in-order replay gives the same result as an overwrite.
  old_parent.mtime = std::max(old_parent.mtime, mtime);
  node->name = std::string(BaseName(dst));
  node->parent = new_parent->id;
  node->mtime = mtime;
  new_parent->children.Insert(slot, NameHash(node->name));
  new_parent->mtime = std::max(new_parent->mtime, mtime);
  return Status::Ok();
}

Status Tree::DoSetReplication(std::string_view path, std::uint32_t replication,
                              SimTime mtime) {
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  if (node->is_dir) {
    return Status::FailedPrecondition(std::string(path) + " is a directory");
  }
  node->replication = replication;
  node->mtime = mtime;
  return Status::Ok();
}

Status Tree::DoAddBlock(std::string_view path, BlockId block, SimTime mtime) {
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  if (node->is_dir) {
    return Status::FailedPrecondition(std::string(path) + " is a directory");
  }
  node->blocks.push_back(block);
  node->mtime = mtime;
  if (block >= next_block_) next_block_ = block + 1;
  return Status::Ok();
}

Status Tree::DoSetOwner(std::string_view path, std::string_view owner,
                        SimTime mtime) {
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  node->owner_id = InternOwner(owner);
  node->mtime = mtime;
  return Status::Ok();
}

Status Tree::DoSetPermission(std::string_view path, std::uint16_t permission,
                             SimTime mtime) {
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  node->permission = permission;
  node->mtime = mtime;
  return Status::Ok();
}

Status Tree::DoSetTimes(std::string_view path, SimTime mtime) {
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  node->mtime = mtime;
  return Status::Ok();
}

Status Tree::DoCompleteFile(std::string_view path, SimTime mtime) {
  Inode* node = ResolveMutable(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  if (node->is_dir) {
    return Status::FailedPrecondition(std::string(path) + " is a directory");
  }
  node->complete = true;
  node->mtime = mtime;
  return Status::Ok();
}

// --- shard record cores -----------------------------------------------------

Status Tree::DoInstallFile(const journal::LogRecord& record) {
  // Upsert: a retried transfer chunk may re-apply a file already installed
  // (possibly with blocks appended by the same chunk), so any existing node
  // at the path is removed first and the install rebuilds it from scratch.
  if (Resolve(record.path) != nullptr) {
    Status del = DoDelete(record.path, record.mtime);
    if (!del.ok()) return del;
  }
  Status s = DoCreate(record.path, record.replication, record.mtime);
  if (!s.ok()) return s;
  Inode* node = ResolveMutable(record.path);
  node->owner_id = InternOwner(record.path2);
  node->permission = static_cast<std::uint16_t>(record.block >> 2);
  node->complete = (record.block & 0x2) != 0;
  node->mtime = record.mtime;
  return Status::Ok();
}

Status Tree::DoInstallDir(const journal::LogRecord& record) {
  Status s = DoMkdir(record.path, record.mtime);
  if (!s.ok()) return s;
  Inode* node = ResolveMutable(record.path);
  if (node == nullptr || !node->is_dir) {
    return Status::FailedPrecondition(record.path + " is not a directory");
  }
  node->owner_id = InternOwner(record.path2);
  node->permission = static_cast<std::uint16_t>(record.block >> 2);
  node->mtime = record.mtime;
  return Status::Ok();
}

Status Tree::DoErase(std::string_view path, SimTime mtime) {
  if (Resolve(path) == nullptr) return Status::Ok();  // idempotent
  return DoDelete(path, mtime);
}

void Tree::DropSlotFiles(std::uint32_t slot, std::uint32_t slot_count,
                         SimTime mtime) {
  if (slot_count == 0) return;
  std::vector<std::string> doomed;
  ForEachNode([&](const std::string& path, const Inode& node) {
    if (node.is_dir) return;
    if (PathSlot(path, slot_count) == slot) doomed.push_back(path);
  });
  // ForEachNode yields DFS-sorted paths, so removal order is deterministic.
  for (const std::string& path : doomed) (void)DoDelete(path, mtime);
}

Status Tree::ApplyShardControl(const journal::LogRecord& record) {
  const auto slot = static_cast<std::uint32_t>(record.block);
  switch (record.op) {
    case OpCode::kShardMigrateBegin:
      shard_.outbound[slot] =
          ShardState::Outbound{record.txid, record.replication, false};
      break;
    case OpCode::kShardMigrateCutover:
      if (auto it = shard_.outbound.find(slot); it != shard_.outbound.end()) {
        it->second.cutover = true;
      }
      break;
    case OpCode::kShardMigrateEnd: {
      TxId migration_id = 0;
      if (auto it = shard_.outbound.find(slot); it != shard_.outbound.end()) {
        migration_id = it->second.migration_id;
        shard_.outbound.erase(it);
      }
      DropSlotFiles(slot, record.replication, record.mtime);
      shard_.migrated_out.insert(slot);
      // A slot this group once *acquired* can later be migrated away again;
      // keeping it in `acquired` would let both groups claim ownership.
      shard_.acquired.erase(slot);
      shard_.history[slot] = ShardState::History{migration_id, true};
      break;
    }
    case OpCode::kShardMigrateAbort: {
      TxId migration_id = 0;
      if (auto it = shard_.outbound.find(slot); it != shard_.outbound.end()) {
        migration_id = it->second.migration_id;
        shard_.outbound.erase(it);
      }
      shard_.history[slot] = ShardState::History{migration_id, false};
      break;
    }
    case OpCode::kShardAcquire:
      shard_.acquired.insert(slot);
      shard_.migrated_out.erase(slot);
      shard_.inbound.erase(slot);
      break;
    case OpCode::kShardDiscard:
      DropSlotFiles(slot, record.replication, record.mtime);
      shard_.inbound.erase(slot);
      break;
    case OpCode::kShardInboundBegin:
      shard_.inbound[slot] = ShardState::Inbound{
          static_cast<TxId>(record.mtime), record.replication};
      break;
    case OpCode::kTxIntent:
      shard_.tx_intents[record.path] = ShardState::TxIntent{
          static_cast<OpCode>(record.block), record.path2, record.replication,
          record.client, record.mtime};
      break;
    case OpCode::kTxFinish:
    case OpCode::kTxAbort:
      shard_.tx_intents.erase(record.path);
      break;
    default:
      break;  // kTxCommit: dedup entry only (generic path)
  }
  return Status::Ok();
}

void Tree::ForEachNode(
    const std::function<void(const std::string&, const Inode&)>& fn) const {
  std::string path;
  std::function<void(const Inode&)> walk = [&](const Inode& node) {
    for (const Inode* child : SortedChildren(node)) {
      const std::size_t mark = path.size();
      if (path.empty() || path.back() != '/') path.push_back('/');
      path.append(child->name);
      fn(path, *child);
      if (child->is_dir) walk(*child);
      path.resize(mark);
    }
  };
  walk(Root());
}

// --- execution and replay ----------------------------------------------------

Status Tree::Run(const LogRecord& record) {
  switch (record.op) {
    case OpCode::kCreate:
      return DoCreate(record.path, record.replication, record.mtime);
    case OpCode::kMkdir:
      return DoMkdir(record.path, record.mtime);
    case OpCode::kDelete:
      return DoDelete(record.path, record.mtime);
    case OpCode::kRename:
      return DoRename(record.path, record.path2, record.mtime);
    case OpCode::kSetReplication:
      return DoSetReplication(record.path, record.replication, record.mtime);
    case OpCode::kAddBlock:
      return DoAddBlock(record.path, record.block, record.mtime);
    case OpCode::kCompleteFile:
      return DoCompleteFile(record.path, record.mtime);
    case OpCode::kSetOwner:
      return DoSetOwner(record.path, record.path2, record.mtime);
    case OpCode::kSetPermission:
      return DoSetPermission(record.path,
                             static_cast<std::uint16_t>(record.replication),
                             record.mtime);
    case OpCode::kSetTimes:
      return DoSetTimes(record.path, record.mtime);
    case OpCode::kShardInstallFile:
      return DoInstallFile(record);
    case OpCode::kShardInstallDir:
      return DoInstallDir(record);
    case OpCode::kShardInstallDedup:
      return Status::Ok();  // only the generic RememberApplied in Apply
    case OpCode::kShardErase:
      return DoErase(record.path, record.mtime);
    case OpCode::kShardMigrateBegin:
    case OpCode::kShardMigrateCutover:
    case OpCode::kShardMigrateEnd:
    case OpCode::kShardMigrateAbort:
    case OpCode::kShardAcquire:
    case OpCode::kShardDiscard:
    case OpCode::kShardInboundBegin:
    case OpCode::kTxIntent:
    case OpCode::kTxCommit:
    case OpCode::kTxFinish:
    case OpCode::kTxAbort:
      return ApplyShardControl(record);
  }
  return Status::Ok();
}

Result<LogRecord> Tree::Execute(LogRecord record) {
  if (!journal::IsClientOp(record.op)) {
    return Status::InvalidArgument(std::string("not a client op: ") +
                                   journal::OpCodeName(record.op));
  }
  if (record.op == OpCode::kAddBlock) record.block = next_block_;
  alloc_trace_.clear();
  Status s = Run(record);
  // Only successes enter the dedup table: failures are not journaled, so
  // remembering them would make the active's state diverge from replicas.
  if (!s.ok()) return s;
  // Carry the inode ids this execution drew so replicas replay them
  // instead of their own counter (see AllocateInode).
  record.inode_ids = std::move(alloc_trace_);
  alloc_trace_.clear();
  RememberApplied(record.client);
  return record;
}

Result<LogRecord> Tree::Create(std::string_view path, std::uint32_t replication,
                               SimTime mtime, ClientOpId client) {
  LogRecord record;
  record.op = OpCode::kCreate;
  record.path = std::string(path);
  record.replication = replication;
  record.mtime = mtime;
  record.client = client;
  return Execute(std::move(record));
}

Status Tree::Apply(const journal::LogRecord& record) {
  if (record.txid != 0 && record.txid <= last_txid_) {
    return Status::Ok();  // idempotent replay of an already-applied record
  }
  // Install the record's allocation script: ids the active drew while
  // executing this op. Replay consumes them positionally.
  alloc_trace_.clear();
  alloc_script_ = &record.inode_ids;
  alloc_script_pos_ = 0;
  const Status s = Run(record);
  alloc_script_ = nullptr;
  alloc_script_pos_ = 0;
  if (!s.ok()) {
    return Status::Internal("replay diverged at txid " +
                            std::to_string(record.txid) + " (" +
                            journal::OpCodeName(record.op) + " " + record.path +
                            "): " + s.ToString());
  }
  // An intent is a *prepare*: the client op is not yet durable at the peer
  // group, so a promoted active must not answer its retry as a duplicate
  // success. The abort likewise must not poison the dedup table.
  if (record.op != OpCode::kTxIntent && record.op != OpCode::kTxAbort) {
    RememberApplied(record.client);
  }
  if (record.txid > last_txid_) last_txid_ = record.txid;
  return Status::Ok();
}

// --- image ------------------------------------------------------------------

namespace {
constexpr std::uint32_t kImageMagic = 0x4d414d53;  // "MAMS"
constexpr std::uint32_t kImageVersion = 6;  // v6 adds the intent's op
}  // namespace

std::vector<char> Tree::SaveImage() const {
  ByteWriter out;
  out.U32(kImageMagic);
  out.U32(kImageVersion);
  out.U64(next_inode_);
  out.U64(next_block_);
  out.U64(last_txid_);
  out.U64(file_count_);
  // Inodes in DFS order (children sorted by name) for a canonical layout.
  out.U64(inode_count());
  std::function<void(const Inode&)> write = [&](const Inode& node) {
    out.U64(node.id);
    out.U64(node.parent == kInvalidInode ? 0 : node.parent);
    out.Str(node.name);
    out.U8(node.is_dir ? 1 : 0);
    out.U8(node.complete ? 1 : 0);
    out.U32(node.replication);
    out.U32(node.permission);
    out.Str(OwnerOf(node));
    out.I64(node.mtime);
    out.U32(static_cast<std::uint32_t>(node.blocks.size()));
    for (BlockId b : node.blocks) out.U64(b);
    for (const Inode* child : SortedChildren(node)) write(*child);
  };
  write(Root());
  // Client dedup table, sorted for canonical bytes.
  std::vector<std::pair<std::uint64_t, ClientEntry>> clients(
      client_table_.begin(), client_table_.end());
  std::sort(clients.begin(), clients.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.U64(clients.size());
  for (const auto& [id, entry] : clients) {
    out.U64(id);
    out.U64(entry.max_seq);
    out.U32(static_cast<std::uint32_t>(entry.recent.size()));
    for (std::uint64_t seq : entry.recent) out.U64(seq);
  }
  // Shard state (all containers already sorted).
  out.U32(static_cast<std::uint32_t>(shard_.acquired.size()));
  for (std::uint32_t s : shard_.acquired) out.U32(s);
  out.U32(static_cast<std::uint32_t>(shard_.migrated_out.size()));
  for (std::uint32_t s : shard_.migrated_out) out.U32(s);
  out.U32(static_cast<std::uint32_t>(shard_.outbound.size()));
  for (const auto& [slot, o] : shard_.outbound) {
    out.U32(slot);
    out.U64(o.migration_id);
    out.U32(o.dst_group);
    out.U8(o.cutover ? 1 : 0);
  }
  out.U32(static_cast<std::uint32_t>(shard_.inbound.size()));
  for (const auto& [slot, ib] : shard_.inbound) {
    out.U32(slot);
    out.U64(ib.migration_id);
    out.U32(ib.from_group);
  }
  out.U32(static_cast<std::uint32_t>(shard_.tx_intents.size()));
  for (const auto& [src, intent] : shard_.tx_intents) {
    out.Str(src);
    out.U8(static_cast<std::uint8_t>(intent.op));
    out.Str(intent.peer_path);
    out.U32(intent.peer_group);
    out.U64(intent.client.client_id);
    out.U64(intent.client.op_seq);
    out.I64(intent.mtime);
  }
  out.U32(static_cast<std::uint32_t>(shard_.history.size()));
  for (const auto& [slot, h] : shard_.history) {
    out.U32(slot);
    out.U64(h.migration_id);
    out.U8(h.ended ? 1 : 0);
  }
  const std::uint64_t checksum = out.Checksum();
  out.U64(checksum);
  return std::move(out).Take();
}

Status Tree::LoadImage(const std::vector<char>& bytes) {
  if (bytes.size() < 8) return Status::Corruption("image too small");
  const std::uint64_t expected =
      Fnv1a(bytes.data(), bytes.size() - 8);
  ByteReader tail(bytes.data() + bytes.size() - 8, 8);
  if (tail.U64() != expected) return Status::Corruption("image checksum");

  ByteReader in(bytes.data(), bytes.size() - 8);
  if (in.U32() != kImageMagic) return Status::Corruption("bad image magic");
  const std::uint32_t version = in.U32();
  if (version != kImageVersion) {
    return Status::Corruption("unsupported image version " +
                              std::to_string(version));
  }
  Tree fresh;
  fresh.next_inode_ = in.U64();
  fresh.next_block_ = in.U64();
  fresh.last_txid_ = in.U64();
  fresh.file_count_ = in.U64();
  const std::uint64_t count = in.U64();
  if (count == 0) return Status::Corruption("image missing root");
  for (std::uint64_t i = 0; i < count; ++i) {
    const InodeId id = in.U64();
    const InodeId parent = in.U64();
    const std::string name = in.Str();
    const bool is_dir = in.U8() != 0;
    const bool complete = in.U8() != 0;
    const std::uint32_t replication = in.U32();
    const auto permission = static_cast<std::uint16_t>(in.U32());
    const std::string owner = in.Str();
    const SimTime mtime = in.I64();
    std::vector<BlockId> blocks(in.U32());
    for (BlockId& b : blocks) b = in.U64();
    if (!in.ok()) return Status::Corruption("truncated image inode");
    // The image is a DFS from the root, so every parent precedes its
    // children; anything else would not load as a tree.
    Inode* node = nullptr;
    if (i == 0) {
      if (id != kRootInode || parent != 0) {
        return Status::Corruption("image missing root");
      }
      node = &fresh.Root();
    } else {
      const std::string what = "image inode " + std::to_string(id);
      if (fresh.SlotOf(id) != SlotIndex::kNone) {
        return Status::Corruption(what + " appears twice");
      }
      if (parent == id) return Status::Corruption(what + " is its own parent");
      const std::uint32_t up = fresh.SlotOf(parent);
      if (up == SlotIndex::kNone) {
        return Status::Corruption("image child precedes parent");
      }
      Inode& dir = fresh.Slot(up);
      if (!dir.is_dir) return Status::Corruption(what + "'s parent is a file");
      if (fresh.Child(dir, name) != nullptr) {
        return Status::Corruption(what + " repeats a name in its directory");
      }
      node = &fresh.Place(id, &dir, name);
    }
    node->name = name;
    node->is_dir = is_dir;
    node->complete = complete;
    node->replication = replication;
    node->permission = permission;
    node->owner_id = fresh.InternOwner(owner);
    node->mtime = mtime;
    node->blocks = std::move(blocks);
  }
  const std::uint64_t nclients = in.U64();
  for (std::uint64_t i = 0; i < nclients; ++i) {
    const std::uint64_t id = in.U64();
    ClientEntry entry;
    entry.max_seq = in.U64();
    const std::uint32_t nrecent = in.U32();
    for (std::uint32_t r = 0; r < nrecent; ++r) entry.recent.insert(in.U64());
    fresh.client_table_.emplace(id, std::move(entry));
  }
  for (std::uint32_t i = 0, n = in.U32(); i < n; ++i) {
    fresh.shard_.acquired.insert(in.U32());
  }
  for (std::uint32_t i = 0, n = in.U32(); i < n; ++i) {
    fresh.shard_.migrated_out.insert(in.U32());
  }
  for (std::uint32_t i = 0, n = in.U32(); i < n; ++i) {
    const std::uint32_t slot = in.U32();
    ShardState::Outbound o;
    o.migration_id = in.U64();
    o.dst_group = in.U32();
    o.cutover = in.U8() != 0;
    fresh.shard_.outbound.emplace(slot, o);
  }
  for (std::uint32_t i = 0, n = in.U32(); i < n; ++i) {
    const std::uint32_t slot = in.U32();
    ShardState::Inbound ib;
    ib.migration_id = in.U64();
    ib.from_group = in.U32();
    fresh.shard_.inbound.emplace(slot, ib);
  }
  for (std::uint32_t i = 0, n = in.U32(); i < n; ++i) {
    std::string src = in.Str();
    ShardState::TxIntent intent;
    intent.op = static_cast<OpCode>(in.U8());
    intent.peer_path = in.Str();
    intent.peer_group = in.U32();
    intent.client.client_id = in.U64();
    intent.client.op_seq = in.U64();
    intent.mtime = in.I64();
    fresh.shard_.tx_intents.emplace(std::move(src), std::move(intent));
  }
  for (std::uint32_t i = 0, n = in.U32(); i < n; ++i) {
    const std::uint32_t slot = in.U32();
    ShardState::History h;
    h.migration_id = in.U64();
    h.ended = in.U8() != 0;
    fresh.shard_.history.emplace(slot, h);
  }
  if (!in.ok()) return Status::Corruption("truncated image");
  *this = std::move(fresh);
  return Status::Ok();
}

std::uint64_t Tree::Fingerprint() const {
  std::uint64_t h = kFnvOffset;
  std::function<void(const Inode&)> walk = [&](const Inode& node) {
    h = Fnv1a(node.name, h);
    const std::uint64_t attrs[] = {
        node.id,
        static_cast<std::uint64_t>(node.is_dir),
        static_cast<std::uint64_t>(node.complete),
        node.replication,
        node.permission,
        static_cast<std::uint64_t>(node.mtime),
        node.blocks.size(),
    };
    h = Fnv1a(attrs, sizeof(attrs), h);
    h = Fnv1a(OwnerOf(node), h);
    for (BlockId b : node.blocks) h = Fnv1a(&b, sizeof(b), h);
    for (const Inode* child : SortedChildren(node)) walk(*child);
  };
  walk(Root());
  std::vector<std::pair<std::uint64_t, ClientEntry>> clients(
      client_table_.begin(), client_table_.end());
  std::sort(clients.begin(), clients.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, entry] : clients) {
    const std::uint64_t vals[] = {id, entry.max_seq, entry.recent.size()};
    h = Fnv1a(vals, sizeof(vals), h);
    for (std::uint64_t seq : entry.recent) h = Fnv1a(&seq, sizeof(seq), h);
  }
  for (std::uint32_t s : shard_.acquired) h = Fnv1a(&s, sizeof(s), h);
  for (std::uint32_t s : shard_.migrated_out) h = Fnv1a(&s, sizeof(s), h);
  for (const auto& [slot, o] : shard_.outbound) {
    const std::uint64_t vals[] = {slot, o.migration_id, o.dst_group,
                                  static_cast<std::uint64_t>(o.cutover)};
    h = Fnv1a(vals, sizeof(vals), h);
  }
  for (const auto& [slot, ib] : shard_.inbound) {
    const std::uint64_t vals[] = {slot, ib.migration_id, ib.from_group};
    h = Fnv1a(vals, sizeof(vals), h);
  }
  for (const auto& [src, intent] : shard_.tx_intents) {
    h = Fnv1a(src, h);
    h = Fnv1a(intent.peer_path, h);
    const std::uint64_t vals[] = {static_cast<std::uint64_t>(intent.op),
                                  intent.peer_group, intent.client.client_id,
                                  intent.client.op_seq,
                                  static_cast<std::uint64_t>(intent.mtime)};
    h = Fnv1a(vals, sizeof(vals), h);
  }
  for (const auto& [slot, hist] : shard_.history) {
    const std::uint64_t vals[] = {slot, hist.migration_id,
                                  static_cast<std::uint64_t>(hist.ended)};
    h = Fnv1a(vals, sizeof(vals), h);
  }
  h = Fnv1a(&last_txid_, sizeof(last_txid_), h);
  return h;
}

}  // namespace mams::fsns
