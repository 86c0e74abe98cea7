#include "core/shard_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "core/mds_server.hpp"
#include "core/ops.hpp"
#include "fsns/path.hpp"

namespace mams::core {

using journal::OpCode;

namespace {

// Shard-protocol pacing: the flat resend delay of every leg, and the
// inbound watchdog's slower query cadence.
constexpr SimTime kRetryDelay = 500 * kMillisecond;
constexpr SimTime kWatchdogPeriod = 4 * kRetryDelay;
/// Records per snapshot chunk streamed to the destination active.
constexpr std::size_t kChunkRecords = 32;
/// Cutover drain: the source polls for its writer and in-flight syncs to
/// drain (at most kDrainPolls times) before shipping the final delta chunk.
constexpr SimTime kDrainPoll = 50 * kMillisecond;
constexpr int kDrainPolls = 40;

/// Acks a control leg. By value: the ack often fires from a journal-commit
/// callback long after the handler's frame is gone.
std::function<void(const Status&)> ControlAck(ReplyFn reply) {
  return [reply = std::move(reply)](const Status& s) {
    auto out = std::make_shared<ShardControlAckMsg>();
    out->ok = s.ok();
    out->code = s.code();
    out->error = s.message();
    reply(out);
  };
}

/// A record of `op` on `path`, stamped `mtime`.
journal::LogRecord Record(OpCode op, std::string path, SimTime mtime) {
  journal::LogRecord rec;
  rec.op = op;
  rec.path = std::move(path);
  rec.mtime = mtime;
  return rec;
}

/// A record of `op` on `slot` (carried in `block`), stamped `mtime`, with
/// the op's other argument, if any, in `replication`.
journal::LogRecord SlotRecord(OpCode op, std::uint32_t slot, SimTime mtime,
                              std::uint32_t replication = 1) {
  journal::LogRecord rec = Record(op, {}, mtime);
  rec.block = slot;
  rec.replication = replication;
  return rec;
}

/// A migration leg's message from `group` about `slot`'s migration `mid`.
template <class Msg>
std::shared_ptr<Msg> LegMsg(GroupId group, std::uint32_t slot, TxId mid) {
  auto msg = std::make_shared<Msg>();
  msg->from_group = group;
  msg->slot = slot;
  msg->migration_id = mid;
  return msg;
}

}  // namespace

/// One op that commits at two groups. Every cross-group mutation runs one
/// protocol (the two-group transactions below): this group journals the
/// intent, the peer group installs the entry (install records plus the
/// kTxCommit dedup point), and this group's finish runs its own half. What
/// depends on the op is its row, and the protocol never names an op: the
/// entry group looks up its intent's row, the peer the row named on the leg.
struct ShardEngine::TwoGroupOp {
  using Intent = fsns::Tree::ShardState::TxIntent;
  ClientOp client_op;
  OpCode op;  ///< the intent's and the commit leg's op
  /// The path the peer installs, and the slot that places it at the peer
  /// (a file by its parent; a new directory as its children's container).
  const std::string ClientRequestMsg::*peer_path;
  std::uint32_t (shard::PartitionMap::*peer_slot)(std::string_view) const;
  /// The op's verdict at the entry group, before the intent.
  Status (*verdict)(const fsns::Tree&, const ClientRequestMsg&);
  /// What the commit leg installs at the peer, from the entry group's tree;
  /// null when it is gone, which aborts the transaction.
  const fsns::Inode* (*shipped)(const fsns::Tree&, const std::string& key);
  /// The peer half's check before it installs at `path`: a non-ok status is
  /// the verdict, except Unavailable, which the leg retries.
  Status (*admit)(const fsns::Tree&, const std::string& path);
  /// Journals the entry group's half once the peer committed; a non-ok
  /// status aborts the transaction instead.
  Status (*finish)(ShardEngine&, const std::string& key, const Intent&);
  /// The counter a committed transaction bumps at the entry group, if any.
  std::uint64_t MdsServer::Counters::*count = nullptr;
  obs::Counter* MdsServer::MetricHandles::*metric = nullptr;

  static const TwoGroupOp kRows[2];
  static const TwoGroupOp* Find(ClientOp op) {
    for (const TwoGroupOp& row : kRows) {
      if (row.client_op == op) return &row;
    }
    return nullptr;
  }
  /// The row of an intent or a commit leg, which only rows' ops reach.
  static const TwoGroupOp& Of(OpCode op) {
    for (const TwoGroupOp& row : kRows) {
      if (row.op == op) return row;
    }
    std::abort();
  }
};

ShardEngine::ShardEngine(MdsServer& server)
    : s_(server), map_(server.options().partition_map) {}

// --- partition map ------------------------------------------------------------

void ShardEngine::AdoptMap(std::uint64_t epoch,
                           const std::vector<char>& bytes) {
  if (epoch == 0 || epoch <= map_.epoch()) return;
  auto m = shard::PartitionMap::Deserialize(bytes);
  if (!m.ok()) {
    MAMS_WARN("shard", "%s: undecodable partition map epoch %llu",
              s_.name().c_str(), (unsigned long long)epoch);
    return;
  }
  MAMS_INFO("shard", "%s: adopting partition map epoch %llu (was %llu)",
            s_.name().c_str(), (unsigned long long)epoch,
            (unsigned long long)map_.epoch());
  map_ = std::move(m).value();
}

void ShardEngine::FetchMapFromCoord() {
  s_.coord().GetMap(
      [this](Status s, std::uint64_t epoch, const std::vector<char>& bytes) {
        if (s.ok()) AdoptMap(epoch, bytes);
      });
}

bool ShardEngine::OwnsSlotForRead(std::uint32_t slot) const {
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  // Journal-derived ownership overrides the cached map in both directions:
  // an acquired slot is served before the new map arrives, and a slot we
  // cut away is bounced even while the map still names us its owner.
  if (sh.acquired.contains(slot)) return true;
  if (map_.OwnerOfSlot(slot) != s_.group()) return false;
  if (sh.migrated_out.contains(slot)) return false;
  auto ob = sh.outbound.find(slot);
  if (ob != sh.outbound.end() && ob->second.cutover) return false;
  return true;
}

const char* ShardEngine::WriteRefusal(std::uint32_t slot) const {
  if (!OwnsSlotForRead(slot)) return "slot not owned";
  // Cutover fence: the slot is mid hand-off. The bounce carries the
  // *current* map, which the client already has — it backs off one poll
  // interval rather than spinning its attempt budget away.
  if (!OwnsSlotForWrite(slot)) return "shard cutover in progress";
  return nullptr;
}

bool ShardEngine::BounceTxFenced(const ClientRequestMsg& req,
                                 const ReplyFn& reply) {
  for (const auto& [key, intent] : s_.tree().shard().tx_intents) {
    auto touches = [&](const std::string& p) {
      return p == intent.peer_path || fsns::IsPrefixPath(p, key);
    };
    if (touches(req.path) || (!req.path2.empty() && touches(req.path2))) {
      // The entry is mid-flight between two groups; its linearization
      // point is the peer's commit, so this side may not answer for it
      // yet. A bounce (not a bare Unavailable) so the client paces its
      // retries instead of burning its attempt budget against the fence.
      Bounce(reply, "cross-group transaction in progress");
      return true;
    }
  }
  return false;
}

void ShardEngine::Bounce(const ReplyFn& reply, const char* why) {
  Bump(s_.mutable_counters().shard_bounces, s_.m().shard_bounces);
  auto out = s_.StatusReply(Status::Unavailable(why));
  out->shard_bounce = true;
  out->map_epoch = map_.epoch();
  out->map_bytes = map_.Serialize();
  reply(out);
}

bool ShardEngine::AdmitRead(const ClientRequestMsg& req,
                            const ReplyFn& reply) {
  if (BounceTxFenced(req, reply)) return false;
  // A listing enumerates the directory's children, which all hash by this
  // directory; a stat resolves the entry itself, which hashes by its parent.
  const std::uint32_t slot = req.op == ClientOp::kListDir
                                 ? map_.SlotOfDir(req.path)
                                 : map_.SlotOf(req.path);
  if (!OwnsSlotForRead(slot)) {
    Bounce(reply, "slot not owned");
    return false;
  }
  return true;
}

bool ShardEngine::AdmitMutation(const ClientRequestMsg& req,
                                const ReplyFn& reply) {
  if (BounceTxFenced(req, reply)) return false;
  const std::uint32_t slot = map_.SlotOf(req.path);
  const char* why = WriteRefusal(slot);
  if (why == nullptr && req.op == ClientOp::kRename) {
    const std::uint32_t dslot = map_.SlotOf(req.path2);
    if (dslot != slot) why = WriteRefusal(dslot);
  }
  if (why != nullptr) {
    Bounce(reply, why);
    return false;
  }
  if (req.op == ClientOp::kDelete || req.op == ClientOp::kRename) {
    const fsns::Inode* node = s_.tree().FindInode(req.path);
    if (node != nullptr && node->is_dir) {
      // A directory's children live in its container group. Deleting it
      // here would leave them behind there, so, like a cross-group
      // directory rename, it is refused.
      if (req.op == ClientOp::kDelete &&
          map_.OwnerOfDir(req.path) != s_.group()) {
        s_.ReplyStatus(reply, Status::FailedPrecondition(
                                  "cross-group delete of a directory"));
        return false;
      }
      // Structural restriction: deleting or renaming a *directory*
      // relocates every descendant entry's slot, which the per-path
      // snapshot/delta machinery cannot track mid-migration. Such ops
      // stall until the namespace stops moving.
      const fsns::Tree::ShardState& sh = s_.tree().shard();
      if (!drives_.empty() || !sh.outbound.empty() || !sh.inbound.empty()) {
        Bounce(reply, "namespace repartitioning in progress");
        return false;
      }
    }
  }
  return true;
}

// --- journaling helpers -------------------------------------------------------

TxId ShardEngine::AppendShardRecord(journal::LogRecord rec) {
  journal::LogRecord applied = rec;
  const TxId txid = s_.commit()->Append(std::move(rec));
  applied.txid = txid;
  CaptureMigrationDelta(applied);
  Status s = s_.mutable_tree().Apply(applied);
  if (!s.ok()) {
    MAMS_ERROR("shard", "%s: shard record apply failed: %s",
               s_.name().c_str(), s.ToString().c_str());
  }
  // A slot drop moves the mtimes of the slot's directories, which their
  // parents' lease fills show, and no mutation patches them.
  if (applied.op == OpCode::kShardMigrateEnd ||
      applied.op == OpCode::kShardDiscard) {
    s_.reads().RevokeSlot(static_cast<std::uint32_t>(applied.block), txid,
                          /*parents=*/true);
  }
  return txid;
}

TxId ShardEngine::JournalShardRecord(journal::LogRecord rec,
                                     std::function<void(bool)> done) {
  const std::shared_ptr<CommitPath>& commit = s_.commit();
  if (!commit) {
    if (done) done(false);
    return 0;
  }
  const TxId txid = AppendShardRecord(std::move(rec));
  if (done) {
    commit->Await(txid, [done](net::MessagePtr m) {
      done(net::Cast<ClientResponseMsg>(m).ok);
    });
  }
  commit->SealIfSlotFree();
  return txid;
}

void ShardEngine::CaptureMigrationDelta(const journal::LogRecord& rec) {
  if (drives_.empty()) return;
  auto note = [this](std::uint32_t slot, const std::string& path) {
    auto it = drives_.find(slot);
    if (it != drives_.end() && it->second.capturing) {
      it->second.dirty.insert(path);
    }
  };
  if (!rec.path.empty()) note(map_.SlotOf(rec.path), rec.path);
  if (!rec.path2.empty()) note(map_.SlotOf(rec.path2), rec.path2);
  // A new directory also belongs to its container slot (see MigratesWith).
  if (rec.op == OpCode::kMkdir || rec.op == OpCode::kShardInstallDir) {
    note(map_.SlotOfDir(rec.path), rec.path);
  }
}

bool ShardEngine::MigratesWith(std::uint32_t slot, const std::string& path,
                               const fsns::Inode& node) const {
  // A slot holds the entries hashed to it and, as their container, the
  // directories whose children hash to it. An empty directory has no child
  // whose install would materialize it, so it ships on its own.
  return map_.SlotOf(path) == slot ||
         (node.is_dir && map_.SlotOfDir(path) == slot);
}

template <class Ack>
void ShardEngine::SendLeg(GroupId group, net::MessagePtr msg, SimTime backoff,
                          std::function<bool()> stale,
                          std::function<void(const Ack&)> on_ack,
                          net::RpcHooks hooks) {
  const net::RpcPolicy policy{
      .attempt_timeout = MdsServer::kFetchRpc.attempt_timeout,
      .max_attempts = 0,
      .backoff_base = backoff,
      .backoff_multiplier = 1.0,
      .backoff_cap = backoff,
      .jitter = 0.0,
  };
  std::function<bool()> gone = [tenure = std::weak_ptr(s_.commit()),
                                stale = std::move(stale)] {
    return tenure.expired() || (stale && stale());
  };
  // The peer group's active is looked up afresh on every attempt, so a
  // resend follows the peer's failover; kInvalidNode burns the attempt.
  hooks.target = [this, group](int) { return s_.directory()->Active(group); };
  if (!hooks.retry_response) {
    hooks.retry_response = [](const net::MessagePtr& m) {
      return !net::Cast<Ack>(m).ok;
    };
  }
  hooks.cancelled = gone;
  net::RpcCall::Start(
      s_, kInvalidNode, std::move(msg), policy,
      [gone, on_ack = std::move(on_ack)](Result<net::MessagePtr> r) {
        // With unlimited attempts the call ends only on an accepted ack or
        // on cancellation; an ack landing after the drive went stale drops.
        if (r.ok() && !gone()) on_ack(net::Cast<Ack>(r.value()));
      },
      std::move(hooks));
}

// --- migration engine: source side --------------------------------------------

Status ShardEngine::StartMigration(std::uint32_t slot, GroupId dst) {
  if (!s_.commit()) return Status::FailedPrecondition("not active");
  if (slot >= map_.slot_count()) return Status::InvalidArgument("bad slot");
  if (dst == s_.group()) return Status::InvalidArgument("dst is self");
  if (!OwnsSlotForWrite(slot)) {
    return Status::FailedPrecondition("slot not owned");
  }
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  if (drives_.contains(slot) || sh.outbound.contains(slot) ||
      sh.inbound.contains(slot)) {
    return Status::FailedPrecondition("migration already in flight");
  }
  MigrationDrive& d = drives_[slot];
  d.stats = {.slot = slot, .dst = dst, .begin_time = s_.sim().Now()};

  const TxId mid = JournalShardRecord(
      SlotRecord(OpCode::kShardMigrateBegin, slot, s_.sim().Now(), dst),
      [this, slot](bool ok) {
        auto it = drives_.find(slot);
        if (it == drives_.end()) return;
        if (!ok) {
          it->second.stats.aborted = true;
          stats_.push_back(it->second.stats);
          drives_.erase(it);
          return;
        }
        // Begin is durable across the group; start streaming. The
        // destination's watchdog covers us if we die from here on.
        SendNextChunk(slot);
      });
  d.stats.migration_id = mid;
  // Snapshot synchronously at the begin record and capture deltas from the
  // same instant — nothing can slip between image and delta stream. The
  // cutover_fence mutation knocks out exactly this guarantee: accepted
  // writes are never captured, so everything after the snapshot is lost.
  d.capturing = s_.options().mutation != Mutation::kSkipCutoverFence;
  std::vector<journal::LogRecord> cur;
  s_.tree().ForEachNode([&](const std::string& path, const fsns::Inode& node) {
    if (!MigratesWith(slot, path, node)) return;
    if (cur.size() >= kChunkRecords) {
      d.chunks.push_back(std::move(cur));
      cur.clear();
    }
    AppendInstallRecords(path, node, cur);
    ++d.stats.entries;
  });
  if (!cur.empty()) d.chunks.push_back(std::move(cur));
  MAMS_INFO("shard",
            "%s: migration %llu: slot %u -> group %u (%llu entries, %zu chunks)",
            s_.name().c_str(), (unsigned long long)mid, slot, dst,
            (unsigned long long)d.stats.entries, d.chunks.size());
  return Status::Ok();
}

void ShardEngine::AppendInstallRecords(
    const std::string& path, const fsns::Inode& node,
    std::vector<journal::LogRecord>& out) const {
  journal::LogRecord rec = Record(
      node.is_dir ? OpCode::kShardInstallDir : OpCode::kShardInstallFile, path,
      node.mtime);
  rec.path2 = s_.tree().OwnerOf(node);
  rec.replication = node.replication;
  rec.block = (static_cast<BlockId>(node.permission) << 2) |
              (!node.is_dir && node.complete ? 0x2u : 0x0u);
  out.push_back(std::move(rec));
  // A file's blocks ride in the same chunk as its install record: a retried
  // chunk re-runs install (which rebuilds the file from scratch) before
  // re-adding them, so whole-chunk replay cannot duplicate blocks.
  for (BlockId b : node.blocks) {
    journal::LogRecord br = Record(OpCode::kAddBlock, path, node.mtime);
    br.block = b;
    out.push_back(std::move(br));
  }
}

void ShardEngine::SendNextChunk(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end()) return;
  MigrationDrive& d = it->second;
  if (d.next_chunk >= d.chunks.size()) {
    StartCutover(slot);
    return;
  }
  const TxId mid = d.stats.migration_id;
  auto msg = LegMsg<ShardTransferMsg>(s_.group(), slot, mid);
  msg->seq = d.next_seq;
  // Every resend carries this same message, so it owns the chunk now.
  msg->records = std::move(d.chunks[d.next_chunk]);
  SendLeg<ShardTransferAckMsg>(
      d.stats.dst, std::move(msg), kRetryDelay,
      [this, slot, mid] { return MigrationStale(slot, mid); },
      [this, slot](const ShardTransferAckMsg&) {
        MigrationDrive& d = drives_.at(slot);
        ++d.next_chunk;
        ++d.next_seq;
        ++d.stats.chunks;
        SendNextChunk(slot);
      });
}

void ShardEngine::StartCutover(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end()) return;
  MigrationDrive& d = it->second;
  if (s_.options().mutation == Mutation::kSkipCutoverFence) {
    // Mutation self-test: keep accepting writes through the cutover but
    // stop capturing them — they are acknowledged, never shipped, and
    // vanish when kShardMigrateEnd drops the slot. The checker must flag
    // the resulting lost updates.
    d.capturing = false;
  } else {
    d.fence = true;
  }
  // Client-cache leases on directories whose children live in this slot are
  // revoked now: after cutover their mutations commit at the destination,
  // which cannot reach grants recorded here. SendActivate holds the
  // destination's activation on the revocations' barrier.
  s_.reads().RevokeSlot(slot, d.stats.migration_id);
  d.stats.fence_time = s_.sim().Now();
  DrainThenShip(slot, kDrainPolls);
}

void ShardEngine::DrainThenShip(std::uint32_t slot, int polls_left) {
  if (!drives_.contains(slot)) return;
  // Every fenced-out writer has already been bounced; what remains is the
  // journal pipeline — in-flight 2PC syncs and records waiting for a window
  // slot — and two-group transactions whose entry lives in the slot, whose
  // finish still erases or installs it here. Once all are done, every
  // accepted slot write is committed and sits in `dirty`.
  const auto& intents = s_.tree().shard().tx_intents;
  const bool drained =
      s_.commit_queue_depth() == 0 &&
      std::none_of(intents.begin(), intents.end(), [&](const auto& kv) {
        return map_.SlotOf(kv.first) == slot;
      });
  if (drained || polls_left <= 0) {
    MAMS_DEBUG("shard", "%s: slot %u drained (polls left %d); shipping final",
               s_.name().c_str(), slot, polls_left);
    ShipFinalChunk(slot);
    return;
  }
  s_.AfterLocal(kDrainPoll, [this, slot, polls_left] {
    DrainThenShip(slot, polls_left - 1);
  });
}

void ShardEngine::ShipFinalChunk(std::uint32_t slot) {
  MigrationDrive& d = drives_.at(slot);
  const TxId mid = d.stats.migration_id;
  d.capturing = false;

  auto msg = LegMsg<ShardTransferMsg>(s_.group(), slot, mid);
  msg->seq = d.next_seq;
  msg->final_chunk = true;
  // Delta records: for each path mutated since the snapshot, ship its
  // current state (install) or, for an entry of the slot, its absence
  // (erase). std::set iteration keeps the order deterministic.
  const fsns::Tree& tree = s_.tree();
  for (const std::string& path : d.dirty) {
    const fsns::Inode* node = tree.FindInode(path);
    if (node != nullptr && MigratesWith(slot, path, *node)) {
      AppendInstallRecords(path, *node, msg->records);
    } else if (node == nullptr && map_.SlotOf(path) == slot) {
      msg->records.push_back(
          Record(OpCode::kShardErase, path, s_.sim().Now()));
    }
  }
  d.dirty.clear();
  // The whole dedup table rides with the final chunk so client retries that
  // land at the destination after cutover are suppressed exactly as they
  // would have been here. Ascending (client, seq) replay reproduces each
  // entry's max_seq/recent window bit-for-bit.
  std::vector<std::uint64_t> clients;
  clients.reserve(tree.client_table().size());
  for (const auto& [cid, entry] : tree.client_table()) clients.push_back(cid);
  std::sort(clients.begin(), clients.end());
  for (std::uint64_t cid : clients) {
    for (std::uint64_t seq : tree.client_table().at(cid).recent) {
      journal::LogRecord dr = Record(OpCode::kShardInstallDedup, {}, 0);
      dr.client = ClientOpId{cid, seq};
      msg->records.push_back(std::move(dr));
    }
  }

  // Built once and resent verbatim: the dirty set is consumed above and
  // cannot be rebuilt.
  SendLeg<ShardTransferAckMsg>(
      d.stats.dst, std::move(msg), kRetryDelay,
      [this, slot, mid] { return MigrationStale(slot, mid); },
      [this, slot, mid](const ShardTransferAckMsg&) {
        ++drives_.at(slot).stats.chunks;
        // The destination holds the full image; make the hand-off durable
        // on our side. From the moment this record applies, reads for the
        // slot bounce too (OwnsSlotForRead checks outbound.cutover).
        JournalShardRecord(
            SlotRecord(OpCode::kShardMigrateCutover, slot, s_.sim().Now()),
            [this, slot, mid](bool ok) {
              // Not ok: deposed; the successor resumes off the journal.
              if (!ok || MigrationStale(slot, mid)) return;
              MAMS_DEBUG("shard", "%s: slot %u cutover durable; activating",
                         s_.name().c_str(), slot);
              SendActivate(slot);
            });
      });
}

void ShardEngine::SendActivate(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end()) return;
  const TxId mid = it->second.stats.migration_id;
  const GroupId dst = it->second.stats.dst;
  // The destination must not commit mutations for the slot while a client
  // could still serve a cached entry leased here, so activation is held on
  // the cutover's lease barrier until every revoked holder acks — bounded
  // by the lease TTL, which is under the failover window. (A crash-resumed
  // migration has no barrier: the crash dropped the grant table, and the
  // successor's election already outwaited every possible TTL.)
  s_.reads().RunOrHoldOnBarrier(mid, [this, slot, mid, dst] {
    auto msg = LegMsg<ShardControlMsg>(s_.group(), slot, mid);
    msg->kind = ShardControlKind::kActivate;
    SendLeg<ShardControlAckMsg>(
        dst, std::move(msg), kRetryDelay,
        [this, slot, mid] { return MigrationStale(slot, mid); },
        [this, slot](const ShardControlAckMsg&) {
          MAMS_DEBUG("shard", "%s: slot %u activated at destination; publishing",
                     s_.name().c_str(), slot);
          PublishMapForSlot(slot);
        });
  });
}

void ShardEngine::PublishMapForSlot(std::uint32_t slot) {
  auto it = drives_.find(slot);
  if (it == drives_.end()) return;
  const TxId mid = it->second.stats.migration_id;
  const GroupId dst = it->second.stats.dst;
  shard::PartitionMap next = map_;
  next.Assign(slot, dst);
  s_.coord().PublishMap(
      next.epoch(), next.Serialize(),
      [this, slot, mid, dst](Status s, std::uint64_t epoch,
                             const std::vector<char>& bytes) {
        // Concurrent publishers can collide on the epoch and the service
        // keeps the first arrival, silently dropping the loser. The reply
        // carries the decided map; if our assignment lost, re-assign on the
        // winner's map (newer epoch) and republish.
        if (MigrationStale(slot, mid)) return;
        if (s.ok()) AdoptMap(epoch, bytes);
        if (map_.OwnerOfSlot(slot) == dst) {
          drives_.at(slot).stats.publish_time = s_.sim().Now();
          FinishMigration(slot);
          return;
        }
        MAMS_DEBUG("shard",
                   "%s: publish of slot %u left epoch %llu owner %u "
                   "(want %u); retrying",
                   s_.name().c_str(), slot, (unsigned long long)map_.epoch(),
                   map_.OwnerOfSlot(slot), dst);
        s_.AfterLocal(kRetryDelay, [this, slot, mid] {
          if (!MigrationStale(slot, mid)) PublishMapForSlot(slot);
        });
      });
}

void ShardEngine::FinishMigration(std::uint32_t slot) {
  const TxId mid = drives_.at(slot).stats.migration_id;
  journal::LogRecord rec = SlotRecord(OpCode::kShardMigrateEnd, slot,
                                      s_.sim().Now(), map_.slot_count());
  JournalShardRecord(std::move(rec), [this, slot, mid](bool ok) {
    // Not ok: deposed; the successor re-runs the end off the journal.
    if (!ok || MigrationStale(slot, mid)) return;
    MigrationDrive& d = drives_.at(slot);
    d.stats.end_time = s_.sim().Now();
    Bump(s_.mutable_counters().migrations_completed,
         s_.m().migrations_completed);
    MAMS_INFO("shard", "%s: migration %llu done: slot %u -> group %u",
              s_.name().c_str(), (unsigned long long)mid, slot, d.stats.dst);
    stats_.push_back(d.stats);
    drives_.erase(slot);
  });
}

void ShardEngine::AbortOutbound(std::uint32_t slot) {
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  auto ob = sh.outbound.find(slot);
  if (ob == sh.outbound.end() || ob->second.cutover) return;
  JournalShardRecord(
      SlotRecord(OpCode::kShardMigrateAbort, slot, s_.sim().Now()),
      [this, slot, mid = ob->second.migration_id,
       dst = ob->second.dst_group](bool ok) {
        if (!ok) return;
        // Best effort: the destination's watchdog queries us and learns the
        // abort from our journal history even if this never gets through.
        auto msg = LegMsg<ShardControlMsg>(s_.group(), slot, mid);
        msg->kind = ShardControlKind::kAbort;
        SendLeg<ShardControlAckMsg>(dst, std::move(msg), kRetryDelay, nullptr,
                                    [](const ShardControlAckMsg&) {});
      });
}

void ShardEngine::RollForwardOutbound(std::uint32_t slot) {
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  auto ob = sh.outbound.find(slot);
  if (ob == sh.outbound.end() || !ob->second.cutover) return;
  // The previous active journaled the cutover, so the destination holds
  // the complete image: activation, map publication and the end record are
  // all safe to repeat — drive them again from here.
  MigrationDrive& d = drives_[slot];
  d.stats.slot = slot;
  d.stats.dst = ob->second.dst_group;
  d.stats.migration_id = ob->second.migration_id;
  d.stats.begin_time = s_.sim().Now();  // resumed; source timings are gone
  d.stats.fence_time = s_.sim().Now();
  MAMS_INFO("shard", "%s: rolling migration %llu forward (slot %u -> %u)",
            s_.name().c_str(), (unsigned long long)d.stats.migration_id, slot,
            d.stats.dst);
  SendActivate(slot);
}

// --- migration engine: destination side ---------------------------------------

void ShardEngine::HandleTransfer(const net::MessagePtr& msg,
                                 const ReplyFn& reply) {
  auto req = std::static_pointer_cast<const ShardTransferMsg>(msg);
  // Applying a chunk costs CPU like the equivalent client writes would.
  const SimTime cost = kOpCosts.create *
                       static_cast<SimTime>(1 + req->records.size() / 4);
  s_.AfterLocal(s_.ChargeCpu(cost), [this, req, reply] {
    // By value: the last ack fires from a journal-commit callback.
    auto ack = [reply](bool ok, const std::string& why) {
      auto out = std::make_shared<ShardTransferAckMsg>();
      out->ok = ok;
      out->error = why;
      reply(out);
    };
    const std::shared_ptr<CommitPath>& commit = s_.commit();
    if (!commit) {
      ack(false, "not active");
      return;
    }
    const fsns::Tree::ShardState& sh = s_.tree().shard();
    if (sh.acquired.contains(req->slot)) {
      // Stale duplicate after activation: ack without touching the tree —
      // replaying the transfer would clobber post-activation client writes.
      ack(true, "");
      return;
    }
    auto ib = sh.inbound.find(req->slot);
    const bool fresh = ib == sh.inbound.end();
    if (!fresh && ib->second.migration_id != req->migration_id) {
      ack(false, "busy with another migration");
      return;
    }
    if (fresh && req->seq > 0) {
      // Mid-stream chunk with no inbound state: the migration this chunk
      // belongs to was discarded here. Refuse; the source re-queries.
      ack(false, "no inbound migration");
      return;
    }
    TxId last = 0;
    if (fresh) {
      last = AppendShardRecord(
          SlotRecord(OpCode::kShardInboundBegin, req->slot,
                     static_cast<SimTime>(req->migration_id), req->from_group));
    }
    std::vector<std::string> changed;
    for (journal::LogRecord rec : req->records) {
      rec.txid = 0;  // assigned by our writer; source txids mean nothing here
      if (rec.op == OpCode::kShardInstallFile ||
          rec.op == OpCode::kShardInstallDir ||
          rec.op == OpCode::kShardErase) {
        changed.push_back(rec.path);
      }
      last = AppendShardRecord(std::move(rec));
    }
    // An install may materialize ancestors (mkdir -p) and each change
    // moves its parent's mtime, with no mutation to patch the leases that
    // show them: revoke those, and ack the chunk once their holders have.
    for (const std::string& path : changed) s_.reads().RevokeUnder(path, last);
    if (last == 0) {
      // Nothing new to make durable (an empty delta/dedup final chunk, or a
      // retried chunk whose records were all applied before): every earlier
      // chunk was only acked after its batch committed, so the slot image is
      // already safely replicated — ack right away. Registering under an
      // already-committed txid would never fire and the source would retry
      // this chunk forever.
      ack(true, "");
      return;
    }
    commit->Await(last, [ack](net::MessagePtr m) {
      const auto& resp = net::Cast<ClientResponseMsg>(m);
      ack(resp.ok, resp.error);
    });
    commit->SealIfSlotFree();
    if (fresh) ArmInboundWatchdog(req->slot);
  });
}

MigrationOutcome ShardEngine::AnswerMigrationQuery(std::uint32_t slot,
                                                   TxId migration_id) const {
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  auto ob = sh.outbound.find(slot);
  if (ob != sh.outbound.end() && ob->second.migration_id == migration_id) {
    return ob->second.cutover ? MigrationOutcome::kEnded
                              : MigrationOutcome::kInProgress;
  }
  auto h = sh.history.find(slot);
  if (h != sh.history.end()) {
    if (h->second.migration_id == migration_id) {
      return h->second.ended ? MigrationOutcome::kEnded
                             : MigrationOutcome::kAborted;
    }
    // The slot's last migration is a different one; the queried migration
    // can only have been superseded after aborting.
    return MigrationOutcome::kAborted;
  }
  return MigrationOutcome::kUnknown;
}

void ShardEngine::ArmInboundWatchdog(std::uint32_t slot) {
  // Covers a source that decided (cutover, abort) or vanished without
  // telling us: periodically ask the source group's active what its journal
  // says happened and converge on that verdict.
  s_.AfterLocal(kWatchdogPeriod, [this, slot,
                                  tenure = std::weak_ptr(s_.commit())] {
    if (tenure.expired()) return;
    const fsns::Tree::ShardState& sh = s_.tree().shard();
    auto ib = sh.inbound.find(slot);
    if (ib == sh.inbound.end()) return;  // resolved meanwhile
    const TxId mid = ib->second.migration_id;
    auto q = LegMsg<ShardControlMsg>(s_.group(), slot, mid);
    q->kind = ShardControlKind::kQuery;
    net::RpcHooks hooks;
    hooks.retry_response = [](const net::MessagePtr& m) {
      const auto& ack = net::Cast<ShardControlAckMsg>(m);
      return !ack.ok || ack.outcome == MigrationOutcome::kInProgress;
    };
    SendLeg<ShardControlAckMsg>(
        ib->second.from_group, std::move(q), kWatchdogPeriod,
        [this, slot, mid] {
          const auto& inbound = s_.tree().shard().inbound;
          auto ib = inbound.find(slot);
          return ib == inbound.end() || ib->second.migration_id != mid;
        },
        [this, slot](const ShardControlAckMsg& ack) {
          // Ended: the source cut over, so the image we journaled is
          // authoritative. Aborted or unknown: drop the half-received slot.
          JournalInboundVerdict(
              slot, ack.outcome == MigrationOutcome::kEnded, nullptr);
        },
        std::move(hooks));
  });
}

void ShardEngine::HandleControl(const net::MessagePtr& msg,
                                const ReplyFn& reply) {
  auto ctl = std::static_pointer_cast<const ShardControlMsg>(msg);
  auto ack_status = ControlAck(reply);
  if (!s_.commit()) {
    ack_status(Status::Unavailable("not active"));
    return;
  }
  if (ctl->kind == ShardControlKind::kQuery) {
    // Answered at the *source* active, from journal-derived state.
    auto out = std::make_shared<ShardControlAckMsg>();
    out->ok = true;
    out->outcome = AnswerMigrationQuery(ctl->slot, ctl->migration_id);
    reply(out);
    return;
  }
  if (ctl->kind == ShardControlKind::kTxCommit) {
    // The peer's half costs what the op itself costs.
    s_.AfterLocal(s_.ChargeCpu(OpCost(TwoGroupOp::Of(ctl->tx_op).client_op)),
                  [this, ctl, reply] { HandleTxCommit(ctl, reply); });
    return;
  }

  const fsns::Tree::ShardState& sh = s_.tree().shard();
  auto ib = sh.inbound.find(ctl->slot);
  const bool matches =
      ib != sh.inbound.end() && ib->second.migration_id == ctl->migration_id;
  const bool activate = ctl->kind == ShardControlKind::kActivate;
  if (activate && sh.acquired.contains(ctl->slot)) {
    ack_status(Status::Ok());  // duplicate after a lost ack
    return;
  }
  if (!matches) {
    // An abort with nothing to discard is already resolved.
    ack_status(activate
                   ? Status::FailedPrecondition("no matching inbound migration")
                   : Status::Ok());
    return;
  }
  JournalInboundVerdict(ctl->slot, activate, [ack_status](bool ok) {
    ack_status(ok ? Status::Ok() : Status::Unavailable("not committed"));
  });
}

void ShardEngine::JournalInboundVerdict(std::uint32_t slot, bool acquire,
                                        std::function<void(bool)> done) {
  JournalShardRecord(
      SlotRecord(acquire ? OpCode::kShardAcquire : OpCode::kShardDiscard, slot,
                 s_.sim().Now(), acquire ? 1 : map_.slot_count()),
      std::move(done));
}

// --- two-group transactions (TwoGroupOp) -------------------------------------

const ShardEngine::TwoGroupOp ShardEngine::TwoGroupOp::kRows[2] = {
    {
        // A file moves to its destination's group and leaves the source.
        .client_op = ClientOp::kRename,
        .op = OpCode::kRename,
        .peer_path = &ClientRequestMsg::path2,
        .peer_slot = &shard::PartitionMap::SlotOf,
        .verdict = [](const fsns::Tree& tree, const ClientRequestMsg& req) {
          // Precedence mirrors the local rename (and the checker's model):
          // argument validity, then rename-under-itself, then source
          // existence.
          if (!fsns::IsValidPath(req.path) || !fsns::IsValidPath(req.path2) ||
              req.path == "/") {
            return Status::InvalidArgument("bad rename path");
          }
          if (fsns::IsPrefixPath(req.path, req.path2)) {
            return Status::FailedPrecondition("rename under its own subtree");
          }
          const fsns::Inode* node = tree.FindInode(req.path);
          if (node == nullptr) return Status::NotFound(req.path);
          // A directory's descendants rehash under the new name across
          // arbitrary groups; moving a subtree between groups is out of
          // scope (mirrors real metadata services, which fence or forbid
          // cross-volume renames).
          return node->is_dir ? Status::FailedPrecondition(
                                    "cross-group rename of a directory")
                              : Status::Ok();
        },
        .shipped = [](const fsns::Tree& tree, const std::string& key) {
          const fsns::Inode* node = tree.FindInode(key);
          return node == nullptr || node->is_dir ? nullptr : node;
        },
        .admit = [](const fsns::Tree& tree, const std::string& path) {
          // A renamed file needs a free name under an existing parent, as
          // the local rename does — it never materializes ancestors.
          if (tree.FindInode(path) != nullptr) {
            return Status::AlreadyExists(path);
          }
          for (const auto& [key, intent] : tree.shard().tx_intents) {
            // The name is promised to this group's own pending mkdir (of
            // it, or beneath it). Not a verdict: the leg retries and gets
            // the real one once the mkdir resolves. Directory installs
            // never wait, so two groups cannot wait on each other.
            if (intent.op == OpCode::kMkdir &&
                fsns::IsPrefixPath(path, key)) {
              return Status::Unavailable(
                  "cross-group transaction in progress");
            }
          }
          const std::string parent_path(fsns::ParentDir(path));
          const fsns::Inode* parent = tree.FindInode(parent_path);
          return parent == nullptr || !parent->is_dir
                     ? Status::NotFound(parent_path)
                     : Status::Ok();
        },
        .finish = [](ShardEngine& e, const std::string& key, const Intent&) {
          e.AppendShardRecord(
              Record(OpCode::kShardErase, key, e.s_.sim().Now()));
          return Status::Ok();
        },
        .count = &MdsServer::Counters::cross_group_renames,
        .metric = &MdsServer::MetricHandles::cross_group_renames,
    },
    {
        // A directory is installed at its container group (where its
        // children live) and made here, where its own entry lives.
        .client_op = ClientOp::kMkdir,
        .op = OpCode::kMkdir,
        .peer_path = &ClientRequestMsg::path,
        .peer_slot = &shard::PartitionMap::SlotOfDir,
        .verdict = [](const fsns::Tree& tree, const ClientRequestMsg& req) {
          // mkdirs semantics, in the local order: a file at the path, then
          // a file on an ancestor; an existing directory commits as a no-op.
          if (!fsns::IsValidPath(req.path)) {
            return Status::InvalidArgument("bad path: " + req.path);
          }
          for (std::string_view p = req.path; p != "/";
               p = fsns::ParentDir(p)) {
            const fsns::Inode* node = tree.FindInode(p);
            if (node == nullptr || node->is_dir) continue;
            const std::string what = std::string(p) + " is a file";
            return p == req.path ? Status::AlreadyExists(what)
                                 : Status::FailedPrecondition(what);
          }
          return Status::Ok();
        },
        .shipped = [](const fsns::Tree&, const std::string&) {
          static const fsns::Inode kNewDir{.is_dir = true};
          return &kNewDir;
        },
        .admit = [](const fsns::Tree& tree, const std::string& path) {
          // A directory installs over a directory (mkdirs semantics).
          const fsns::Inode* existing = tree.FindInode(path);
          return existing != nullptr && !existing->is_dir
                     ? Status::AlreadyExists(path) : Status::Ok();
        },
        .finish = [](ShardEngine& e, const std::string& key,
                     const Intent& intent) {
          // This group's half is the client's own record, executed and
          // journaled like a local mkdir. The verdict checks, the fences and
          // the rename row's wait at the peer keep it applicable; should it
          // fail anyway, the client gets the failure, never an Ok.
          journal::LogRecord mk = Record(OpCode::kMkdir, key, intent.mtime);
          mk.client = intent.client;
          Result<journal::LogRecord> rec =
              e.s_.mutable_tree().Execute(std::move(mk));
          if (!rec.ok()) {
            MAMS_ERROR("shard", "%s: mkdir finish failed: %s",
                       e.s_.name().c_str(), rec.status().ToString().c_str());
            return rec.status();
          }
          e.CaptureMigrationDelta(rec.value());
          e.s_.mutable_tree().set_last_txid(
              e.s_.commit()->Append(std::move(rec).value()));
          return Status::Ok();
        },
    },
};

bool ShardEngine::StartTwoGroupTx(RequestPtr req, const ReplyFn& reply) {
  const TwoGroupOp* row = TwoGroupOp::Find(req->op);
  if (row == nullptr) return false;
  const std::string& peer_path = (*req).*row->peer_path;
  const GroupId peer = map_.OwnerOfSlot((map_.*row->peer_slot)(peer_path));
  if (peer == s_.group()) return false;
  if (s_.tree().IsDuplicate(req->client)) {
    // The transaction finished in a previous life of this request.
    s_.commit()->AwaitResend(req->client, reply);
    return true;
  }
  if (BounceTxFenced(*req, reply)) return true;
  if (const char* why = WriteRefusal(map_.SlotOf(req->path))) {
    Bounce(reply, why);
    return true;
  }
  if (Status verdict = row->verdict(s_.tree(), *req); !verdict.ok()) {
    s_.ReplyStatus(reply, verdict);
    return true;
  }
  // Prepare: journal the intent. From the moment it applies, the fences
  // stall every request touching the entry (or what the peer installs)
  // until the outcome commits.
  journal::LogRecord rec = Record(OpCode::kTxIntent, req->path, s_.sim().Now());
  rec.path2 = peer_path;
  rec.replication = peer;
  rec.block = static_cast<BlockId>(row->op);
  rec.client = req->client;
  JournalShardRecord(std::move(rec), [this, key = req->path, reply](bool ok) {
    if (!ok) {
      s_.ReplyStatus(reply, Status::Unavailable("server deposed"));
      return;
    }
    tx_drives_[key] = reply;
    SendTxCommit(key);
  });
  return true;
}

void ShardEngine::SendTxCommit(const std::string& key) {
  if (!tx_drives_.contains(key)) return;
  const auto& intents = s_.tree().shard().tx_intents;
  auto in = intents.find(key);
  if (in == intents.end()) {
    tx_drives_.erase(key);
    return;
  }
  const fsns::Tree::ShardState::TxIntent& intent = in->second;
  const TwoGroupOp& row = TwoGroupOp::Of(intent.op);
  const fsns::Inode* node = row.shipped(s_.tree(), key);
  if (node == nullptr) {
    // The fences make this unreachable in normal operation; abort rather
    // than install garbage at the peer.
    FinishTx(key, Status::NotFound(key));
    return;
  }
  auto msg = LegMsg<ShardControlMsg>(
      s_.group(), (map_.*row.peer_slot)(intent.peer_path), 0);
  msg->kind = ShardControlKind::kTxCommit;
  msg->tx_op = intent.op;
  msg->client = intent.client;
  AppendInstallRecords(intent.peer_path, *node, msg->install);
  // The installed entry carries the transaction's timestamp.
  for (journal::LogRecord& r : msg->install) r.mtime = intent.mtime;
  net::RpcHooks hooks;
  // Unavailable means the peer is mid-failover or bouncing — not a
  // verdict; any other ack decides the transaction.
  hooks.retry_response = [](const net::MessagePtr& m) {
    return net::Cast<ShardControlAckMsg>(m).code == StatusCode::kUnavailable;
  };
  hooks.on_retry = [this, key](int, const Status& why) {
    // A timed-out attempt is indeterminate: the peer may have committed and
    // the ack was lost. The intent stays and the resend resolves it (the
    // duplicate check at the peer makes a repeated commit harmless); the
    // waiting client is failed now — its own retry is suppressed likewise.
    if (why.code() != StatusCode::kTimedOut) return;
    if (ReplyFn reply = std::exchange(tx_drives_.at(key), nullptr)) {
      s_.ReplyStatus(reply,
                     Status::Unavailable("transaction peer unreachable"));
    }
  };
  SendLeg<ShardControlAckMsg>(
      intent.peer_group, std::move(msg), kRetryDelay,
      [this, key] {
        return !tx_drives_.contains(key) ||
               !s_.tree().shard().tx_intents.contains(key);
      },
      [this, key](const ShardControlAckMsg& ack) {
        FinishTx(key, Status(ack.code, ack.error));
      },
      std::move(hooks));
}

void ShardEngine::HandleTxCommit(
    const std::shared_ptr<const ShardControlMsg>& ctl, const ReplyFn& reply) {
  auto ack_status = ControlAck(reply);
  const std::shared_ptr<CommitPath>& commit = s_.commit();
  if (!commit) {
    ack_status(Status::Unavailable("not active"));
    return;
  }
  if (s_.tree().IsDuplicate(ctl->client)) {
    ack_status(Status::Ok());  // committed in a previous attempt
    return;
  }
  if (const char* why = WriteRefusal(ctl->slot)) {
    ack_status(Status::Unavailable(why));
    return;
  }
  const journal::LogRecord& entry = ctl->install.front();
  const TwoGroupOp& row = TwoGroupOp::Of(ctl->tx_op);
  if (Status s = row.admit(s_.tree(), entry.path); !s.ok()) {
    ack_status(s);
    return;
  }
  // Commit: install the entry (anonymous — the dedup point is the commit
  // record) and stamp the transaction with the real client id.
  for (const journal::LogRecord& r : ctl->install) AppendShardRecord(r);
  journal::LogRecord rec = Record(OpCode::kTxCommit, entry.path, entry.mtime);
  rec.client = ctl->client;
  const TxId txid = AppendShardRecord(std::move(rec));
  // Installing the entry conflicts with leases on its parent (and,
  // defensively, its subtree). Every holder is remote to this transaction —
  // even the client's own grant is pushed, which keeps read-your-writes:
  // the push round-trip completes before the barrier lets the ack (and
  // hence the client's reply at the entry group) leave.
  s_.reads().RevokeUnder(entry.path, txid);
  commit->Await(txid, [ack_status](net::MessagePtr m) {
    ack_status(net::Cast<ClientResponseMsg>(m).ok
                   ? Status::Ok()
                   : Status::Unavailable("not committed"));
  });
  commit->SealIfSlotFree();
}

void ShardEngine::FinishTx(const std::string& key, Status outcome) {
  const auto& intents = s_.tree().shard().tx_intents;
  auto in = intents.find(key);
  if (in == intents.end()) return;
  const TwoGroupOp& row = TwoGroupOp::Of(in->second.op);
  if (outcome.ok()) outcome = row.finish(*this, key, in->second);
  const bool committed = outcome.ok();
  journal::LogRecord rec =
      Record(committed ? OpCode::kTxFinish : OpCode::kTxAbort, key,
             s_.sim().Now());
  // Finish remembers the real client (the transaction is now durable on
  // both sides); abort stays anonymous so the client's retry re-executes.
  if (committed) rec.client = in->second.client;
  const TxId txid = JournalShardRecord(
      std::move(rec), [this, key, row = &row, outcome](bool ok) {
        // Counted whenever the finish commits, also for a resumed drive
        // whose client is long gone.
        if (ok && outcome.ok() && row->count != nullptr) {
          Bump(s_.mutable_counters().*row->count, s_.m().*row->metric);
        }
        auto drive = tx_drives_.extract(key);
        // No reply: a crash-resumed drive, whose client is long gone.
        if (!drive || !drive.mapped()) return;
        s_.ReplyStatus(drive.mapped(),
                       ok ? outcome : Status::Unavailable("server deposed"));
      });
  // This group's half changed the entry here: revoke leases on its parent
  // (and subtree) and hold the client's reply on the barrier, mirroring the
  // peer side of the transaction.
  if (committed && txid != 0) s_.reads().RevokeUnder(key, txid);
}

// --- failover resume ----------------------------------------------------------

void ShardEngine::Resume() {
  FetchMapFromCoord();
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  std::vector<std::uint32_t> roll_forward;
  std::vector<std::uint32_t> abort;
  for (const auto& [slot, ob] : sh.outbound) {
    (ob.cutover ? roll_forward : abort).push_back(slot);
  }
  for (std::uint32_t slot : roll_forward) RollForwardOutbound(slot);
  // Pre-cutover outbound migrations abort: the volatile snapshot/delta
  // state died with the previous active, so the transfer cannot be
  // completed faithfully — and nothing was promised to anyone yet.
  for (std::uint32_t slot : abort) AbortOutbound(slot);
  for (const auto& [slot, ib] : sh.inbound) ArmInboundWatchdog(slot);
  for (const auto& [key, intent] : sh.tx_intents) {
    // Re-drive the prepared transaction to its commit or abort. The client
    // reply is gone; its retry is answered by the dedup table either way.
    tx_drives_[key];
    SendTxCommit(key);
  }
}

void ShardEngine::Abandon() {
  drives_.clear();
  for (auto& [key, reply] : tx_drives_) {
    if (reply) s_.ReplyStatus(reply, Status::Unavailable("server deposed"));
  }
  tx_drives_.clear();
}

}  // namespace mams::core
