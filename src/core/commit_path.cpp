#include "core/commit_path.hpp"

#include <algorithm>
#include <optional>

#include "core/mds_server.hpp"
#include "net/rpc.hpp"

namespace mams::core {

namespace {

/// Journal 2PC prepare to each standby: a single bounded attempt — an
/// unresponsive standby is demoted and backfilled later, never waited for
/// (that is what keeps sync latency flat in Fig. 5).
constexpr net::RpcPolicy kSyncRpc{
    .attempt_timeout = 1500 * kMillisecond,
    .max_attempts = 1,
};

/// Retry cadence for re-appending a batch whose SSP copy failed, while its
/// server stays active: the pool is the recovery source for failovers, so
/// every batch later ones build on must become durable there.
constexpr SimTime kSspAppendRetry = 500 * kMillisecond;

}  // namespace

CommitPath::CommitPath(MdsServer& server)
    : s_(server),
      writer_([this](journal::Batch b, std::vector<char> bytes) {
        OnBatchSealed(std::move(b), std::move(bytes));
      }) {
  writer_.Reseed(s_.last_sn(), s_.tree().last_txid());
  // Standbys that registered before we became active would otherwise never
  // receive journals; watch events keep the set fresh afterwards.
  AddViewStandbys();
}

TxId CommitPath::Append(journal::LogRecord rec) {
  if (writer_.pending_records() == 0) oldest_pending_at_ = s_.sim().Now();
  return writer_.Append(std::move(rec));
}

void CommitPath::Commit(const ClientRequestMsg& req, journal::LogRecord rec,
                        const ReplyFn& reply) {
  s_.shard().CaptureMigrationDelta(rec);
  const TxId txid = Append(std::move(rec));
  s_.mutable_tree().set_last_txid(txid);  // keep the active's replay cursor
  Await(txid, s_.reads().RevokeConflicting(req, txid, reply));
  SealIfSlotFree();
}

void CommitPath::AwaitResend(ClientOpId client, const ReplyFn& reply) {
  // Unreleased records: the writer's pending tail, the rounds in flight and
  // the held batches. Acking a resend before its original's batch leaves
  // would promise what a failover can still lose.
  auto holds = [client](const std::vector<journal::LogRecord>& records) {
    auto it = std::find_if(records.begin(), records.end(),
                           [client](const journal::LogRecord& rec) {
                             return rec.client == client;
                           });
    return it == records.end() ? std::optional<TxId>() : it->txid;
  };
  std::optional<TxId> txid = holds(writer_.pending());
  for (auto it = pending_sync_.begin(); !txid && it != pending_sync_.end();
       ++it) {
    txid = holds(it->second.batch->records);
  }
  for (auto it = held_.begin(); !txid && it != held_.end(); ++it) {
    txid = holds(it->batch->records);
  }
  if (txid) {
    Await(*txid, reply);
  } else {
    s_.ReplyStatus(reply, Status::Ok());
  }
}

bool CommitPath::SealIfSlotFree(bool may_defer) {
  if (writer_.pending_records() == 0 ||
      pending_sync_.size() >= kCommitWindow) {
    return false;
  }
  const SimTime backlog = s_.CpuBacklog();
  if (may_defer && !pending_sync_.empty() && backlog > 0) {
    if (!seal_armed_) {
      seal_armed_ = true;
      s_.AfterLocal(backlog, [life = weak_from_this()] {
        if (auto self = life.lock()) {
          self->seal_armed_ = false;
          self->SealIfSlotFree(/*may_defer=*/false);
        }
      });
    }
    return false;
  }
  const SimTime waited = s_.sim().Now() - oldest_pending_at_;
  s_.m().seal_wait_ns->Record(waited);
  if (waited > 0) ++s_.mutable_counters().pipeline_deferred;
  writer_.Flush();
  return true;
}

void CommitPath::OnBatchSealed(journal::Batch batch, std::vector<char> bytes) {
  // The writer hands over the batch by value exactly once; everything
  // downstream (recent window, pending sync, prepare messages) shares one
  // immutable copy instead of duplicating the records per consumer.
  auto owned = std::make_shared<const journal::Batch>(std::move(batch));
  s_.AdvanceTo(owned);
  s_.m().batch_records->Record(static_cast<std::int64_t>(owned->records.size()));

  const SerialNumber sn = owned->sn;
  PendingSync& ps = pending_sync_[sn];
  ps.batch = owned;
  ps.awaiting = targets_;
  ps.ssp_done = s_.options().mutation == Mutation::kSspOffCommitPath;
  ps.begin = s_.sim().Now();
  ps.span = s_.sim().obs().tracer().Begin(
      "mds", "sync_batch", s_.id(), s_.group(),
      {{"sn", static_cast<std::uint64_t>(sn)},
       {"records", static_cast<std::uint64_t>(owned->records.size())},
       {"targets", static_cast<std::uint64_t>(ps.awaiting.size())}});

  // Replication fan-out costs CPU on the active: the batch was serialized
  // and checksummed once at seal time and is sent once per target (the SSP
  // copy and each standby), so sends are staggered through the CPU cursor.
  // This is the per-standby overhead Figure 5 quantifies (~4% per added
  // standby on transactional ops). Sends already queued go out even if the
  // tenure ends first; receivers fence them.
  const OpCosts& costs = kOpCosts;
  const auto per_target =
      costs.sync_cpu_base +
      static_cast<SimTime>(static_cast<double>(bytes.size()) /
                           costs.sync_bytes_per_sec *
                           static_cast<double>(kSecond));

  // The SSP copy (journal segment shared file), fenced with our token, goes
  // first: its leg is the only one with a disk write, so it is the slowest,
  // and the round waits for its slowest leg. Queued behind the standby
  // prepares it would start one per-target charge per standby later. The
  // bytes are the seal-time serialization — no second pass over the
  // records. The round keeps the same buffer for a re-append.
  ps.payload = std::move(bytes);
  storage::SspRecord record;
  record.sn = sn;
  record.fence = s_.fence();
  record.bytes = ps.payload;
  s_.AfterLocal(s_.ChargeCpu(per_target), [this, &s = s_,
                                           life = weak_from_this(), sn,
                                           record = std::move(record)]() mutable {
    s.ssp().Append(s.JournalFile(), std::move(record),
                   [this, life, sn](Status st) {
                     if (life.expired()) return;
                     auto it = pending_sync_.find(sn);
                     if (it == pending_sync_.end()) return;
                     if (!st.ok()) {
                       MAMS_WARN("mds", "%s: ssp append failed: %s",
                                 s_.name().c_str(), st.ToString().c_str());
                     }
                     it->second.ssp_ok = st.ok();
                     it->second.ssp_done = true;
                     MaybeCompleteSync(sn);
                   });
  });

  auto msg = std::make_shared<JournalPrepareMsg>();
  msg->fence = s_.fence();
  msg->batch = std::move(owned);
  for (NodeId peer : ps.awaiting) {
    s_.AfterLocal(s_.ChargeCpu(per_target), [&s = s_, life = weak_from_this(),
                                             peer, sn, msg] {
      const SimTime sent = s.sim().Now();
      net::RpcCall::Start(s, peer, msg, kSyncRpc,
                          [life, peer, sn, sent](Result<net::MessagePtr> r) {
                            // Held: a stale-fence ack deposes this tenure.
                            if (auto self = life.lock()) {
                              self->OnPrepareAck(peer, sn, sent, r);
                            }
                          });
    });
  }
  MaybeCompleteSync(sn);
}

void CommitPath::OnPrepareAck(NodeId peer, SerialNumber sn, SimTime sent,
                              const Result<net::MessagePtr>& r) {
  s_.m().prepare_ack_ns->Record(s_.sim().Now() - sent);
  auto it = pending_sync_.find(sn);
  if (it == pending_sync_.end()) return;
  if (!r.ok()) {
    DemoteUnresponsiveStandby(peer);
  } else {
    const auto& ack = net::Cast<JournalAckMsg>(r.value());
    if (ack.stale_fence) {
      s_.StepDownFromActive("standby reported stale fence");
      return;
    }
    ++it->second.acks;
  }
  it->second.awaiting.erase(peer);
  MaybeCompleteSync(sn);
}

void CommitPath::MaybeCompleteSync(SerialNumber sn) {
  auto it = pending_sync_.find(sn);
  if (it == pending_sync_.end()) return;
  PendingSync& ps = it->second;
  if (ps.completed || !ps.awaiting.empty() || !ps.ssp_done) return;
  ps.completed = true;
  s_.m().sync_batch_ns->Record(s_.sim().Now() - ps.begin);
  s_.sim().obs().tracer().End(ps.span,
                              {{"acks", static_cast<std::uint64_t>(ps.acks)},
                               {"ssp_ok", ps.ssp_ok ? "true" : "false"}});
  FinalizeCompletedSyncs();
}

void CommitPath::FinalizeCompletedSyncs() {
  // A reply below can journal a shard record whose batch completes at once.
  if (finalizing_syncs_) return;
  finalizing_syncs_ = true;
  // Finalization is strictly sn-ordered: with several rounds in flight,
  // batch N+1's acks can land before batch N's, but a standby ack only
  // proves the peer *received* the batch (it may still be buffering a gap),
  // so acknowledged client work is a journal prefix only if replies and
  // committed_sn advance from the front. This keeps the loss on failover
  // prefix-closed exactly as in the stop-and-wait protocol.
  do {
    if (!pending_sync_.empty() && pending_sync_.begin()->second.completed) {
      const SerialNumber sn = pending_sync_.begin()->first;
      PendingSync ps = std::move(pending_sync_.begin()->second);
      pending_sync_.erase(pending_sync_.begin());
      Bump(s_.mutable_counters().batches_synced, s_.m().batches_synced);
      const bool replicated = ps.acks > 0 || ps.ssp_ok;
      s_.NoteFinalized(sn, replicated);
      if (!ps.ssp_ok) {
        // The pool missed it. The SSP is what a future failover drains, and
        // every later batch builds on this one — even one no standby acked
        // either, which standbys backfill once they are reachable again. A
        // hole here would end a junior's drain early and lose the committed
        // batches behind it, so keep re-appending until the copy is durable
        // (or we are deposed and the new active reconciles).
        RetrySspAppend(ps.batch, std::move(ps.payload));
      }
      held_.push_back({std::move(ps.batch), replicated});
    }
    // A batch that no standby acked and the pool missed exists only in
    // this process: its replies, and every later batch's, wait for its
    // re-append to stick. Acking it would promise work a failover loses.
    while (!held_.empty() && held_.front().durable) {
      const BatchPtr batch = std::move(held_.front().batch);
      held_.pop_front();
      for (const auto& rec : batch->records) {
        auto rit = pending_replies_.find(rec.txid);
        if (rit == pending_replies_.end()) continue;
        for (auto& reply : rit->second) {
          // A mutation that revoked remote leases must not complete until
          // every holder acked (or the last revoked grant expired): its ack
          // is held on the txid barrier instead of leaving now.
          s_.reads().RunOrHoldOnBarrier(
              rec.txid, [&s = s_, reply = std::move(reply)] {
                s.ReplyStatus(reply, Status::Ok());
              });
        }
        pending_replies_.erase(rit);
      }
    }
  } while (!pending_sync_.empty() && pending_sync_.begin()->second.completed);
  finalizing_syncs_ = false;
  // Group commit: the records that arrived while the window was full take
  // the slot this finalization freed.
  SealIfSlotFree();
}

void CommitPath::RetrySspAppend(BatchPtr batch, storage::Payload payload) {
  s_.AfterLocal(kSspAppendRetry, [this, life = weak_from_this(), batch,
                                  payload = std::move(payload)] {
    if (life.expired()) return;
    storage::SspRecord record;
    record.sn = batch->sn;
    record.fence = s_.fence();
    record.bytes = payload;
    s_.ssp().Append(s_.JournalFile(), std::move(record),
                    [this, life, batch, payload](Status s) {
                      if (life.expired()) return;
                      if (!s.ok()) {
                        RetrySspAppend(batch, payload);
                        return;
                      }
                      auto it = std::find_if(
                          held_.begin(), held_.end(),
                          [&](const Held& h) { return h.batch == batch; });
                      if (it == held_.end() || it->durable) return;
                      it->durable = true;
                      s_.NoteFinalized(batch->sn, /*replicated=*/true);
                      FinalizeCompletedSyncs();  // releases what it unblocked
                    });
  });
}

void CommitPath::DemoteUnresponsiveStandby(NodeId peer) {
  if (!targets_.contains(peer)) return;
  MAMS_INFO("mds", "%s: demoting unresponsive standby node %u",
            s_.name().c_str(), peer);
  // Only stop replicating to the peer once the demotion has actually
  // committed in the global view. If WE are the partitioned one, the
  // SetState fails and the peer stays a target — dropping it locally
  // while the view still says "standby" would silently diverge.
  s_.coord().SetState(
      s_.group(), peer, ServerState::kJunior, s_.fence(),
      [this, life = weak_from_this(), peer](Result<coord::GroupView> r) {
        if (!life.expired() && r.ok()) targets_.erase(peer);
      });
}

void CommitPath::FailPending() {
  // Obsolete buffered data may still be flushed to peers and the SSP; the
  // sn rule and fencing make it harmless (Section III.C).
  for (auto& [txid, replies] : pending_replies_) {
    for (auto& reply : replies) {
      s_.ReplyStatus(reply, Status::Unavailable("server deposed"));
    }
  }
  pending_replies_.clear();
}

void CommitPath::AddViewStandbys() {
  for (const auto& [node, state] : s_.view().states) {
    if (node != s_.id() && state == ServerState::kStandby) targets_.insert(node);
  }
}

void CommitPath::TrackView() {
  std::erase_if(targets_, [this](NodeId node) {
    return s_.view().StateOf(node) != ServerState::kStandby;
  });
  AddViewStandbys();
}

void CommitPath::Reconcile() {
  AddViewStandbys();
  s_.Resend({targets_.begin(), targets_.end()},
            std::max<SerialNumber>(s_.last_sn(), 1) - 1);
}

void CommitPath::Include(NodeId junior, SerialNumber after_sn) {
  if (targets_.insert(junior).second) s_.Resend({junior}, after_sn);
}

}  // namespace mams::core
