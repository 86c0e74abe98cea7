#include "core/shard_engine.hpp"

#include <algorithm>

#include "core/mds_server.hpp"
#include "fsns/path.hpp"

namespace mams::core {

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

bool ShardEngine::TxFenced(const ClientRequestMsg& req) const {
  for (const auto& [key, intent] : s_.tree().shard().tx_intents) {
    auto touches = [&](const std::string& p) {
      return p == intent.peer_path || fsns::IsPrefixPath(p, key);
    };
    if (touches(req.path) || (!req.path2.empty() && touches(req.path2))) {
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
  if (TxFenced(req)) {
    // The entry is mid-flight between two groups; its linearization point
    // is the peer's commit, so this side may not answer for it yet. A
    // bounce (not a bare Unavailable) so the client paces its retries
    // instead of burning its attempt budget against the fence.
    Bounce(reply, "cross-group transaction in progress");
    return false;
  }
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
  if (TxFenced(req)) {
    Bounce(reply, "cross-group transaction in progress");
    return false;
  }
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
  if (applied.op == journal::OpCode::kShardMigrateEnd ||
      applied.op == journal::OpCode::kShardDiscard) {
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
  if (rec.op == journal::OpCode::kMkdir ||
      rec.op == journal::OpCode::kShardInstallDir) {
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
  d.dst = dst;
  d.stats.slot = slot;
  d.stats.dst = dst;
  d.stats.begin_time = s_.sim().Now();

  journal::LogRecord begin;
  begin.op = journal::OpCode::kShardMigrateBegin;
  begin.block = slot;
  begin.replication = dst;
  begin.mtime = s_.sim().Now();
  const TxId mid = JournalShardRecord(
      std::move(begin), [this, slot](bool ok) {
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
  d.migration_id = mid;
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
  journal::LogRecord rec;
  rec.path = path;
  rec.path2 = s_.tree().OwnerOf(node);
  rec.replication = node.replication;
  rec.mtime = node.mtime;
  if (node.is_dir) {
    rec.op = journal::OpCode::kShardInstallDir;
    rec.block = static_cast<BlockId>(node.permission) << 2;
    out.push_back(std::move(rec));
    return;
  }
  rec.op = journal::OpCode::kShardInstallFile;
  rec.block = (static_cast<BlockId>(node.permission) << 2) |
              (node.complete ? 0x2u : 0x0u);
  out.push_back(std::move(rec));
  // Blocks ride in the same chunk as their install record: a retried chunk
  // re-runs install (which rebuilds the file from scratch) before re-adding
  // them, so whole-chunk replay cannot duplicate blocks.
  for (BlockId b : node.blocks) {
    journal::LogRecord br;
    br.op = journal::OpCode::kAddBlock;
    br.path = path;
    br.block = b;
    br.mtime = node.mtime;
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
  const TxId mid = d.migration_id;
  auto msg = LegMsg<ShardTransferMsg>(s_.group(), slot, mid);
  msg->seq = d.next_seq;
  // Every resend carries this same message, so it owns the chunk now.
  msg->records = std::move(d.chunks[d.next_chunk]);
  SendLeg<ShardTransferAckMsg>(
      d.dst, std::move(msg), kRetryDelay,
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
  s_.reads().RevokeSlot(slot, d.migration_id);
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
  const TxId mid = d.migration_id;
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
      journal::LogRecord er;
      er.op = journal::OpCode::kShardErase;
      er.path = path;
      er.mtime = s_.sim().Now();
      msg->records.push_back(std::move(er));
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
      journal::LogRecord dr;
      dr.op = journal::OpCode::kShardInstallDedup;
      dr.client = ClientOpId{cid, seq};
      msg->records.push_back(std::move(dr));
    }
  }

  // Built once and resent verbatim: the dirty set is consumed above and
  // cannot be rebuilt.
  SendLeg<ShardTransferAckMsg>(
      d.dst, std::move(msg), kRetryDelay,
      [this, slot, mid] { return MigrationStale(slot, mid); },
      [this, slot, mid](const ShardTransferAckMsg&) {
        ++drives_.at(slot).stats.chunks;
        // The destination holds the full image; make the hand-off durable
        // on our side. From the moment this record applies, reads for the
        // slot bounce too (OwnsSlotForRead checks outbound.cutover).
        journal::LogRecord rec;
        rec.op = journal::OpCode::kShardMigrateCutover;
        rec.block = slot;
        rec.mtime = s_.sim().Now();
        JournalShardRecord(std::move(rec), [this, slot, mid](bool ok) {
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
  const TxId mid = it->second.migration_id;
  const GroupId dst = it->second.dst;
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
  const TxId mid = it->second.migration_id;
  const GroupId dst = it->second.dst;
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
  const TxId mid = drives_.at(slot).migration_id;
  journal::LogRecord rec;
  rec.op = journal::OpCode::kShardMigrateEnd;
  rec.block = slot;
  rec.replication = map_.slot_count();
  rec.mtime = s_.sim().Now();
  JournalShardRecord(std::move(rec), [this, slot, mid](bool ok) {
    // Not ok: deposed; the successor re-runs the end off the journal.
    if (!ok || MigrationStale(slot, mid)) return;
    MigrationDrive& d = drives_.at(slot);
    d.stats.end_time = s_.sim().Now();
    Bump(s_.mutable_counters().migrations_completed,
         s_.m().migrations_completed);
    MAMS_INFO("shard", "%s: migration %llu done: slot %u -> group %u",
              s_.name().c_str(), (unsigned long long)mid, slot, d.dst);
    stats_.push_back(d.stats);
    drives_.erase(slot);
  });
}

void ShardEngine::AbortOutbound(std::uint32_t slot) {
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  auto ob = sh.outbound.find(slot);
  if (ob == sh.outbound.end() || ob->second.cutover) return;
  const TxId mid = ob->second.migration_id;
  const GroupId dst = ob->second.dst_group;
  journal::LogRecord rec;
  rec.op = journal::OpCode::kShardMigrateAbort;
  rec.block = slot;
  rec.mtime = s_.sim().Now();
  JournalShardRecord(std::move(rec), [this, slot, mid, dst](bool ok) {
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
  d.migration_id = ob->second.migration_id;
  d.dst = ob->second.dst_group;
  d.stats.slot = slot;
  d.stats.dst = d.dst;
  d.stats.migration_id = d.migration_id;
  d.stats.begin_time = s_.sim().Now();  // resumed; source timings are gone
  d.stats.fence_time = s_.sim().Now();
  MAMS_INFO("shard", "%s: rolling migration %llu forward (slot %u -> %u)",
            s_.name().c_str(), (unsigned long long)d.migration_id, slot,
            d.dst);
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
    auto ack = [&reply](bool ok, const char* why) {
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
    if (ib != sh.inbound.end() &&
        ib->second.migration_id != req->migration_id) {
      ack(false, "busy with another migration");
      return;
    }
    if (ib == sh.inbound.end() && req->seq > 0) {
      // Mid-stream chunk with no inbound state: the migration this chunk
      // belongs to was discarded here. Refuse; the source re-queries.
      ack(false, "no inbound migration");
      return;
    }
    const bool fresh = ib == sh.inbound.end();
    TxId last = 0;
    if (fresh) {
      journal::LogRecord begin;
      begin.op = journal::OpCode::kShardInboundBegin;
      begin.block = req->slot;
      begin.replication = req->from_group;
      begin.mtime = static_cast<SimTime>(req->migration_id);
      last = AppendShardRecord(std::move(begin));
    }
    std::vector<std::string> changed;
    for (journal::LogRecord rec : req->records) {
      rec.txid = 0;  // assigned by our writer; source txids mean nothing here
      if (rec.op == journal::OpCode::kShardInstallFile ||
          rec.op == journal::OpCode::kShardInstallDir ||
          rec.op == journal::OpCode::kShardErase) {
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
    commit->Await(last, [reply](net::MessagePtr m) {
      const auto& resp = net::Cast<ClientResponseMsg>(m);
      auto out = std::make_shared<ShardTransferAckMsg>();
      out->ok = resp.ok;
      out->error = resp.error;
      reply(out);
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
          journal::LogRecord rec;
          rec.block = slot;
          rec.mtime = s_.sim().Now();
          if (ack.outcome == MigrationOutcome::kEnded) {
            // The source cut over; the image we journaled is authoritative.
            rec.op = journal::OpCode::kShardAcquire;
          } else {  // kAborted / kUnknown: drop the half-received slot
            rec.op = journal::OpCode::kShardDiscard;
            rec.replication = map_.slot_count();
          }
          JournalShardRecord(std::move(rec), nullptr);
        },
        std::move(hooks));
  });
}

void ShardEngine::HandleControl(const net::MessagePtr& msg,
                                const ReplyFn& reply) {
  auto ctl = std::static_pointer_cast<const ShardControlMsg>(msg);
  if (ctl->kind == ShardControlKind::kQuery) {
    // Answered at the *source* active, from journal-derived state.
    auto out = std::make_shared<ShardControlAckMsg>();
    if (!s_.commit()) {
      out->ok = false;
      out->code = StatusCode::kUnavailable;
      out->error = "not active";
    } else {
      out->ok = true;
      out->outcome = AnswerMigrationQuery(ctl->slot, ctl->migration_id);
    }
    reply(out);
    return;
  }

  auto ack_status = ControlAck(reply);
  if (!s_.commit()) {
    ack_status(Status::Unavailable("not active"));
    return;
  }
  if (ctl->kind == ShardControlKind::kTxCommit) {
    // The peer's half costs what the op itself costs.
    const bool dir =
        ctl->install.front().op == journal::OpCode::kShardInstallDir;
    s_.AfterLocal(s_.ChargeCpu(dir ? kOpCosts.mkdir : kOpCosts.rename),
                  [this, ctl, reply] { HandleTxCommit(ctl, reply); });
    return;
  }

  const fsns::Tree::ShardState& sh = s_.tree().shard();
  auto ib = sh.inbound.find(ctl->slot);
  const bool matches =
      ib != sh.inbound.end() && ib->second.migration_id == ctl->migration_id;
  journal::LogRecord rec;
  rec.block = ctl->slot;
  rec.mtime = s_.sim().Now();
  if (ctl->kind == ShardControlKind::kActivate) {
    if (sh.acquired.contains(ctl->slot)) {
      ack_status(Status::Ok());  // duplicate after a lost ack
      return;
    }
    if (!matches) {
      ack_status(Status::FailedPrecondition("no matching inbound migration"));
      return;
    }
    rec.op = journal::OpCode::kShardAcquire;
  } else {  // kAbort
    if (!matches) {
      ack_status(Status::Ok());  // nothing to discard (already resolved)
      return;
    }
    rec.op = journal::OpCode::kShardDiscard;
    rec.replication = map_.slot_count();
  }
  JournalShardRecord(std::move(rec), [ack_status](bool ok) {
    ack_status(ok ? Status::Ok() : Status::Unavailable("not committed"));
  });
}

// --- two-group transactions ---------------------------------------------------
//
// One protocol for every cross-group mutation: this group journals the
// intent, the peer group installs the entry (install records plus the
// kTxCommit dedup point), and this group's finish runs its own half. Only
// those records depend on the op: a rename installs the file at its
// destination and erases the source; a mkdir installs the directory at its
// container group and runs the client's kMkdir record here.

GroupId ShardEngine::PeerGroup(const ClientRequestMsg& req) const {
  switch (req.op) {
    case ClientOp::kRename:
      return map_.OwnerOf(req.path2);
    case ClientOp::kMkdir:
      return map_.OwnerOfDir(req.path);
    default:
      return s_.group();
  }
}

Status ShardEngine::TxVerdict(const ClientRequestMsg& req) const {
  const fsns::Tree& tree = s_.tree();
  if (req.op == ClientOp::kMkdir) {
    // mkdirs semantics, in the local order: a file at the path, then a file
    // on an ancestor; an existing directory commits as a no-op.
    if (!fsns::IsValidPath(req.path)) {
      return Status::InvalidArgument("bad path: " + req.path);
    }
    for (std::string_view p = req.path; p != "/"; p = fsns::ParentDir(p)) {
      const fsns::Inode* node = tree.FindInode(p);
      if (node == nullptr || node->is_dir) continue;
      const std::string what = std::string(p) + " is a file";
      return p == req.path ? Status::AlreadyExists(what)
                           : Status::FailedPrecondition(what);
    }
    return Status::Ok();
  }
  // Rename: precedence mirrors the local rename (and the checker's model):
  // argument validity, then rename-under-itself, then source existence.
  if (!fsns::IsValidPath(req.path) || !fsns::IsValidPath(req.path2) ||
      req.path == "/") {
    return Status::InvalidArgument("bad rename path");
  }
  if (fsns::IsPrefixPath(req.path, req.path2)) {
    return Status::FailedPrecondition("rename under its own subtree");
  }
  const fsns::Inode* node = tree.FindInode(req.path);
  if (node == nullptr) return Status::NotFound(req.path);
  if (node->is_dir) {
    // A directory's descendants rehash under the new name across arbitrary
    // groups; moving a subtree between groups is out of scope (mirrors
    // real metadata services, which fence or forbid cross-volume renames).
    return Status::FailedPrecondition("cross-group rename of a directory");
  }
  return Status::Ok();
}

void ShardEngine::StartTwoGroupTx(RequestPtr req, GroupId peer,
                                  const ReplyFn& reply) {
  if (s_.tree().IsDuplicate(req->client)) {
    // The transaction finished in a previous life of this request.
    s_.commit()->AwaitResend(req->client, reply);
    return;
  }
  if (TxFenced(*req)) {
    Bounce(reply, "cross-group transaction in progress");
    return;
  }
  if (const char* why = WriteRefusal(map_.SlotOf(req->path))) {
    Bounce(reply, why);
    return;
  }
  if (Status verdict = TxVerdict(*req); !verdict.ok()) {
    s_.ReplyStatus(reply, verdict);
    return;
  }
  // Prepare: journal the intent. From the moment it applies, the fences
  // stall every request touching the entry (or the rename's destination)
  // until the outcome commits.
  const bool mkdir = req->op == ClientOp::kMkdir;
  journal::LogRecord rec;
  rec.op = journal::OpCode::kTxIntent;
  rec.path = req->path;
  rec.path2 = mkdir ? req->path : req->path2;
  rec.replication = peer;
  rec.block = static_cast<BlockId>(mkdir ? journal::OpCode::kMkdir
                                         : journal::OpCode::kRename);
  rec.mtime = s_.sim().Now();
  rec.client = req->client;
  JournalShardRecord(std::move(rec), [this, key = req->path, reply](bool ok) {
    if (!ok) {
      s_.ReplyStatus(reply, Status::Unavailable("server deposed"));
      return;
    }
    tx_drives_[key].reply = reply;
    SendTxCommit(key);
  });
}

void ShardEngine::SendTxCommit(const std::string& key) {
  auto it = tx_drives_.find(key);
  if (it == tx_drives_.end()) return;
  const auto& intents = s_.tree().shard().tx_intents;
  auto in = intents.find(key);
  if (in == intents.end()) {
    tx_drives_.erase(it);
    return;
  }
  const fsns::Tree::ShardState::TxIntent& intent = in->second;
  auto msg = std::make_shared<ShardControlMsg>();
  msg->kind = ShardControlKind::kTxCommit;
  msg->from_group = s_.group();
  msg->client = intent.client;
  if (intent.op == journal::OpCode::kMkdir) {
    msg->slot = map_.SlotOfDir(intent.peer_path);
    fsns::Inode dir;
    dir.is_dir = true;
    AppendInstallRecords(intent.peer_path, dir, msg->install);
  } else {
    msg->slot = map_.SlotOf(intent.peer_path);
    const fsns::Inode* node = s_.tree().FindInode(key);
    if (node == nullptr || node->is_dir) {
      // The fences make this unreachable in normal operation; abort rather
      // than install garbage at the destination.
      FinishTx(key, Status::NotFound(key));
      return;
    }
    AppendInstallRecords(intent.peer_path, *node, msg->install);
  }
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
    TxDrive& drive = tx_drives_.at(key);
    if (drive.reply) {
      s_.ReplyStatus(drive.reply,
                     Status::Unavailable("transaction peer unreachable"));
      drive.reply = nullptr;
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
  const fsns::Tree& tree = s_.tree();
  if (tree.IsDuplicate(ctl->client)) {
    ack_status(Status::Ok());  // committed in a previous attempt
    return;
  }
  if (const char* why = WriteRefusal(ctl->slot)) {
    ack_status(Status::Unavailable(why));
    return;
  }
  const journal::LogRecord& entry = ctl->install.front();
  const bool dir = entry.op == journal::OpCode::kShardInstallDir;
  // A directory installs over a directory (mkdirs semantics); a renamed
  // file needs a free name under an existing parent, as the local rename
  // does — it never materializes ancestors.
  const fsns::Inode* existing = tree.FindInode(entry.path);
  if (existing != nullptr && !(dir && existing->is_dir)) {
    ack_status(Status::AlreadyExists(entry.path));
    return;
  }
  if (!dir) {
    for (const auto& [key, intent] : tree.shard().tx_intents) {
      // The name is promised to this group's own pending mkdir (of it, or
      // beneath it). Not a verdict: the leg retries Unavailable and gets
      // the real one once the mkdir resolves. Directory installs never
      // wait, so two groups cannot wait on each other.
      if (intent.op == journal::OpCode::kMkdir &&
          fsns::IsPrefixPath(entry.path, key)) {
        ack_status(Status::Unavailable("cross-group transaction in progress"));
        return;
      }
    }
    const std::string parent_path(fsns::ParentDir(entry.path));
    const fsns::Inode* parent = tree.FindInode(parent_path);
    if (parent == nullptr || !parent->is_dir) {
      ack_status(Status::NotFound(parent_path));
      return;
    }
  }
  // Commit: install the entry (anonymous — the dedup point is the commit
  // record) and stamp the transaction with the real client id.
  for (const journal::LogRecord& r : ctl->install) AppendShardRecord(r);
  journal::LogRecord rec;
  rec.op = journal::OpCode::kTxCommit;
  rec.path = entry.path;
  rec.client = ctl->client;
  rec.mtime = entry.mtime;
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
  const journal::OpCode op = in->second.op;
  const ClientOpId client = in->second.client;
  if (outcome.ok() && op == journal::OpCode::kMkdir) {
    // This group's half of the mkdir is the client's own record, executed
    // and journaled like a local mkdir. The verdict checks, the fences and
    // the peer-side wait in HandleTxCommit keep it applicable; should it
    // fail anyway, the client gets the failure, never an Ok.
    journal::LogRecord mk;
    mk.op = journal::OpCode::kMkdir;
    mk.path = key;
    mk.mtime = in->second.mtime;
    mk.client = client;
    Result<journal::LogRecord> rec = s_.mutable_tree().Execute(std::move(mk));
    if (rec.ok()) {
      CaptureMigrationDelta(rec.value());
      const TxId txid = s_.commit()->Append(std::move(rec).value());
      s_.mutable_tree().set_last_txid(txid);
    } else {
      MAMS_ERROR("shard", "%s: mkdir finish failed: %s", s_.name().c_str(),
                 rec.status().ToString().c_str());
      outcome = rec.status();
    }
  } else if (outcome.ok()) {
    journal::LogRecord erase;
    erase.op = journal::OpCode::kShardErase;
    erase.path = key;
    erase.mtime = s_.sim().Now();
    AppendShardRecord(std::move(erase));
  }
  const bool committed = outcome.ok();
  journal::LogRecord rec;
  rec.op = committed ? journal::OpCode::kTxFinish : journal::OpCode::kTxAbort;
  rec.path = key;
  rec.mtime = s_.sim().Now();
  // Finish remembers the real client (the transaction is now durable on
  // both sides); abort stays anonymous so the client's retry re-executes.
  if (committed) rec.client = client;
  const TxId txid = JournalShardRecord(
      std::move(rec), [this, key, op, outcome](bool ok) {
        auto it = tx_drives_.find(key);
        if (it == tx_drives_.end()) return;
        ReplyFn reply = std::move(it->second.reply);
        tx_drives_.erase(it);
        if (!reply) return;  // crash-resumed drive: the client is long gone
        if (!ok) {
          s_.ReplyStatus(reply, Status::Unavailable("server deposed"));
          return;
        }
        if (outcome.ok() && op == journal::OpCode::kRename) {
          Bump(s_.mutable_counters().cross_group_renames,
               s_.m().cross_group_renames);
        }
        s_.ReplyStatus(reply, outcome);
      });
  // The entry appears (mkdir) or disappears (rename) here: revoke leases on
  // its parent (and subtree) and hold the client's reply on the barrier,
  // mirroring the peer side of the transaction.
  if (committed && txid != 0) s_.reads().RevokeUnder(key, txid);
}

// --- failover resume ----------------------------------------------------------

void ShardEngine::Resume() {
  FetchMapFromCoord();
  const fsns::Tree::ShardState& sh = s_.tree().shard();
  std::vector<std::uint32_t> roll_forward;
  std::vector<std::uint32_t> abort;
  std::vector<std::uint32_t> inbound;
  for (const auto& [slot, ob] : sh.outbound) {
    (ob.cutover ? roll_forward : abort).push_back(slot);
  }
  for (const auto& [slot, ib] : sh.inbound) inbound.push_back(slot);
  for (std::uint32_t slot : roll_forward) RollForwardOutbound(slot);
  // Pre-cutover outbound migrations abort: the volatile snapshot/delta
  // state died with the previous active, so the transfer cannot be
  // completed faithfully — and nothing was promised to anyone yet.
  for (std::uint32_t slot : abort) AbortOutbound(slot);
  for (std::uint32_t slot : inbound) ArmInboundWatchdog(slot);
  for (const auto& [key, intent] : sh.tx_intents) {
    // Re-drive the prepared transaction to its commit or abort. The client
    // reply is gone; its retry is answered by the dedup table either way.
    tx_drives_[key];
    SendTxCommit(key);
  }
}

void ShardEngine::Abandon() {
  drives_.clear();
  for (auto& [key, drive] : tx_drives_) {
    if (drive.reply) {
      s_.ReplyStatus(drive.reply, Status::Unavailable("server deposed"));
    }
  }
  tx_drives_.clear();
}

}  // namespace mams::core
