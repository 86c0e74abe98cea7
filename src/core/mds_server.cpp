#include "core/mds_server.hpp"

#include <algorithm>
#include <limits>

#include "core/ops.hpp"

namespace mams::core {

namespace {

/// Pacing for re-running the whole join workflow (register + watch) after
/// it is torn down mid-flight. The coordination client already retries the
/// registration RPC itself, so this backoff only governs the rare outer
/// loop.
constexpr net::RpcPolicy kJoinRetry{
    .attempt_timeout = 2 * kSecond,
    .max_attempts = 0,
    .backoff_base = kSecond,
    .backoff_multiplier = 2.0,
    .backoff_cap = 8 * kSecond,
    .jitter = 0.25,
};

}  // namespace

MdsServer::MdsServer(net::Network& network, std::string name,
                     MdsOptions options, NodeId coord,
                     std::vector<NodeId> ssp_pool, GroupDirectory* directory,
                     FailoverTraceLog* failover_log)
    : net::Host(network, std::move(name)),
      options_(options),
      coord_(coord),
      directory_(directory),
      rng_(network.sim().rng().Fork(Fnv1a(this->name()) | 1)),
      obs_(&network.sim().obs()),
      failover_log_(failover_log) {
  auto& metrics = obs_->metrics();
  auto c = [&metrics](const char* n) { return metrics.counter(n); };
  auto h = [&metrics](const char* n) { return metrics.histogram(n); };
  m_ = {c("mds.ops_served"), c("mds.mutations"), c("mds.reads"),
        c("mds.batches_synced"), c("mds.batches_applied"),
        c("mds.duplicate_batches"), c("mds.elections_won"),
        c("mds.elections_lost"), c("mds.renews_completed"),
        c("mds.fenced_rejections"), c("mds.buffered_during_upgrade"),
        c("mds.standby_reads_served"), c("mds.standby_reads_parked"),
        c("mds.standby_reads_bounced"), c("mds.shard_bounces"),
        c("mds.leases_granted"), c("mds.leases_revoked"),
        c("mds.lease_replies_held"), c("mds.lease_barrier_expiries"),
        c("mds.lease_patches"), c("mds.leases_refused"),
        c("mds.lease_renewals"), c("mds.lease_renewals_refused"),
        c("mds.migrations_completed"), c("mds.cross_group_renames"),
        h("mds.sync_batch_ns"), h("mds.prepare_ack_ns"),
        h("mds.batch_records"), h("mds.seal_wait_ns"), h("mds.cpu_wait_ns"),
        h("mds.resolve_ns"), h("mds.standby_read_staleness_sn"),
        metrics.gauge("mds.last_sn." + this->name()),
        metrics.gauge("mds.fill_snapshot_bytes")};
  renewal_ = std::make_unique<Renewal>(*this);
  reads_ = std::make_unique<ReadService>(*this, /*last_lease_id=*/0);
  shard_ = std::make_unique<ShardEngine>(*this);
  coord_client_ = std::make_unique<coord::CoordClient>(*this, coord_);
  coord_client_->SetWatchHandler(
      [this](const coord::GroupView& v) { OnWatchEvent(v); });
  coord_client_->SetMapHandler(
      [this](std::uint64_t epoch, const std::vector<char>& bytes) {
        shard_->AdoptMap(epoch, bytes);
      });
  coord_client_->SetSessionLostHandler([this] {
    // The session expired while we were partitioned: whatever we believed
    // about our role is stale. A deposed active steps down (and rebuilds
    // if it holds uncommitted state); everyone rejoins as a junior and is
    // renewed back to standby by the current active.
    if (commit_) {
      // kNoFencing: an active that ignores its own session expiry models
      // the classic fencing scenario (GC pause / stuck clock) — it keeps
      // serving while a successor is elected. Only the fence tokens stand
      // between that and split-brain, which is exactly what the checker's
      // fencing mutation has to demonstrate.
      if (options_.mutation != Mutation::kNoFencing) {
        StepDownFromActive("coordination session expired");
      }
    } else if (alive()) {
      BecomeRole(ServerState::kJunior);
      JoinGroup(ServerState::kJunior);
    }
  });
  ssp_ = std::make_unique<storage::SspClient>(*this, std::move(ssp_pool));
  RegisterHandlers();
}

MdsServer::~MdsServer() = default;

// --- lifecycle ---------------------------------------------------------------

void MdsServer::Start(ServerState initial_role) {
  role_ = initial_role;  // desired; confirmed during OnStart
  Boot();
}

void MdsServer::OnStart() {
  const ServerState initial = role_;
  role_ = ServerState::kDown;
  JoinGroup(initial, [this, initial](Status s) {
    if (!s.ok()) {
      // The coordination client retries the registration RPC itself, so a
      // failure here means the join workflow was torn down mid-flight
      // (watch re-arm failed, session stopped during join). Re-run the
      // whole join, paced by kJoinRetry's backoff rather than a hardcoded
      // interval.
      const SimTime delay =
          kJoinRetry.BackoffBeforeAttempt(++join_retries_ + 1, rng_);
      MAMS_WARN("mds", "%s: join failed: %s (retrying in %s)", name().c_str(),
                s.ToString().c_str(), FormatTime(delay).c_str());
      AfterLocal(delay, [this, initial] {
        role_ = initial;
        OnStart();
      });
      return;
    }
    join_retries_ = 0;
    if (initial == ServerState::kActive) {
      // Deployment bootstrap: the configured active takes the group lock
      // before serving (it is the only bidder at cluster start).
      coord_client_->TryLock(
          options_.group, std::numeric_limits<std::uint32_t>::max(), last_sn_,
          [this](Result<coord::CoordClient::LockResult> r) {
            if (!r.ok() || !r.value().granted) {
              MAMS_WARN("mds", "%s: bootstrap lock denied", name().c_str());
              BecomeRole(ServerState::kStandby);
              return;
            }
            fence_ = r.value().fence;
            BecomeRole(ServerState::kActive);
          });
    } else {
      BecomeRole(initial);
    }
  });
}

void MdsServer::Retire() {
  if (!alive()) return;
  obs_->tracer().Instant("mds", "retire", id(), options_.group);
  reads_->FlushParked("retiring");
  // Annotate the view before dying so peers and clients stop routing here
  // immediately; the session-expiry sweep would say the same thing 5 s
  // later. Fire-and-forget: the reply has nowhere to land after Crash().
  coord_client_->SetState(options_.group, id(), ServerState::kDown,
                          /*fence=*/0, [](Result<coord::GroupView>) {});
  Crash();
}

void MdsServer::OnCrash() {
  net::Host::OnCrash();
  // Close whatever spans the dead incarnation left open so the timeline
  // shows them ending at the crash, not dangling forever.
  if (upgrade_) upgrade_->EndSpans(/*ok=*/false);
  renewal_->EndSpans();
  obs_->tracer().Instant("mds", "crash", id(), options_.group);
  coord_client_->Stop();
  // Everything volatile dies with the process image: every owner starts
  // over (the shard engine from the seed map), and parked reads and held
  // replies die unanswered — clients time out and retry elsewhere.
  commit_.reset();
  upgrade_.reset();
  renewal_ = std::make_unique<Renewal>(*this);
  reads_ = std::make_unique<ReadService>(*this, reads_->last_lease_id());
  shard_ = std::make_unique<ShardEngine>(*this);
  DiscardNamespace();
  committed_sn_ = 0;
  cpu_free_at_ = 0;
  backfill_inflight_ = false;
  join_retries_ = 0;
  view_ = coord::GroupView{};
  fence_ = 0;
  role_ = ServerState::kDown;
}

void MdsServer::OnRestart() {
  // A restarted metadata server always comes back as a junior (Section
  // III.A: a junior "can be a server which restarts after a failure").
  role_ = ServerState::kJunior;
  OnStart();
}

void MdsServer::BecomeRole(ServerState role) {
  role_ = role;
  MAMS_INFO("mds", "%s -> %s (sn=%llu)", name().c_str(),
            ServerStateName(role), (unsigned long long)last_sn_);
  obs_->tracer().Instant("mds", "role_change", id(), options_.group,
                         {{"role", std::string(ServerStateName(role))},
                          {"sn", static_cast<std::uint64_t>(last_sn_)}});
  // Role flips are the node-local analogue of a view flip: re-check every
  // registered invariant (e.g. "at most one active per group").
  obs_->probes().Evaluate();
  reads_->OnRole(role);
  renewal_->Lead(role == ServerState::kActive);
  if (role != ServerState::kActive) return;
  if (directory_ != nullptr) directory_->active_of[options_.group] = id();
  commit_ = std::make_shared<CommitPath>(*this);
}

void MdsServer::DiscardNamespace() {
  tree_.Reset();
  blocks_.Clear();
  last_sn_ = 0;
  recent_batches_.clear();
  pending_batches_.clear();
  ++discards_;
  renewal_->ForgetCursor();
  dirty_ = false;
}

void MdsServer::JoinGroup(ServerState state, std::function<void(Status)> done) {
  coord_client_->Register(
      options_.group, state, [this, done](Result<coord::GroupView> r) {
        if (!r.ok()) {
          if (done) done(r.status());
          return;
        }
        view_ = std::move(r).value();
        coord_client_->Watch(options_.group, [this, done](Status s) {
          // A (re)joined replica may have missed map publications; pull the
          // current partition map rather than waiting for the next change.
          if (s.ok()) shard_->FetchMapFromCoord();
          if (done) done(s);
        });
      });
}

// --- view / watch events -------------------------------------------------------

void MdsServer::OnWatchEvent(const coord::GroupView& view) {
  const NodeId prev_lock_holder = view_.lock_holder;
  if (view.version < view_.version) return;  // stale (reordered) event
  view_ = view;

  if (directory_ != nullptr) {
    const NodeId active = view.FindActive();
    if (active != kInvalidNode) directory_->active_of[options_.group] = active;
  }

  if (commit_) {
    // A deposed active stops immediately (Test A: lock stolen via the
    // global view; also covers fencing after a spurious session expiry).
    // The fencing mutation keeps the oblivious active serving (see the
    // session handler in the constructor).
    if (view.lock_holder != id()) {
      if (options_.mutation != Mutation::kNoFencing) {
        StepDownFromActive("lost the group lock");
      }
      return;
    }
    commit_->TrackView();  // 2PC targets: the view's standbys only
  }

  // Demotion observed in the view (the elected standby flipped us).
  if (role_ == ServerState::kStandby &&
      view.StateOf(id()) == ServerState::kJunior) {
    BecomeRole(ServerState::kJunior);
  }
  // Promotion observed in the view: the active only promotes on a progress
  // report showing a near-zero gap, so our applied prefix is consistent —
  // stop renewing and serve as a standby (the live stream and backfill
  // cover any residual tail).
  if (role_ == ServerState::kJunior &&
      view.StateOf(id()) == ServerState::kStandby) {
    renewal_->Promoted();
    BecomeRole(ServerState::kStandby);
  }

  // Election trigger: the lock is free and either there is no active or a
  // previously held lock was just released (Test A).
  const bool lock_freed =
      prev_lock_holder != kInvalidNode && view.lock_holder == kInvalidNode;
  if (view.lock_holder == kInvalidNode &&
      (view.FindActive() == kInvalidNode || lock_freed)) {
    MaybeStartElection(view);
  }
}

void MdsServer::MaybeStartElection(const coord::GroupView& view) {
  if (!alive() || upgrade_) return;
  // Juniors only stand when no standby is left (Algorithm 1, line 8).
  if (role_ == ServerState::kStandby ||
      (role_ == ServerState::kJunior &&
       view.CountInState(ServerState::kStandby) == 0)) {
    upgrade_ = std::make_shared<Upgrade>(*this);
    upgrade_->BidForLock();
  }
}

void MdsServer::StepDownFromActive(const char* why) {
  MAMS_INFO("mds", "%s: stepping down (%s)", name().c_str(), why);
  // An active applies mutations to its tree when it executes them, before
  // the journal batch is replicated. If any such op is still in flight,
  // this tree holds state the cluster never committed — it must NOT rejoin
  // as a standby at its current position, or it would silently diverge
  // when clients' retries re-execute those ops on the new active. The
  // paper handles this by degrading the deposed active to junior; we keep
  // the fast path when the server is provably clean.
  const bool dirty = dirty_ || commit_->HoldsUncommitted();
  const std::shared_ptr<CommitPath> deposed = std::move(commit_);
  BecomeRole(ServerState::kJunior);
  fence_ = 0;
  // Callers re-resolve the active; the successor rebuilds the shard drives
  // from the journal-derived ShardState.
  deposed->FailPending();
  shard_->Abandon();
  if (dirty) {
    MAMS_INFO("mds", "%s: discarding uncommitted namespace state",
              name().c_str());
    DiscardNamespace();
  }
  // Leave the view ("-" in Table II) and wait for the new active's
  // registration round; if none arrives we rejoin as a junior ourselves.
  coord_client_->Stop();
  AfterLocal(2 * kSecond, [this] {
    if (!coord_client_->registered()) {
      JoinGroup(ServerState::kJunior);
    }
  });
}

// --- client requests ---------------------------------------------------------

SimTime MdsServer::ChargeCpu(SimTime cost) {
  const SimTime start = std::max(sim().Now(), cpu_free_at_);
  cpu_free_at_ = start + cost;
  return cpu_free_at_ - sim().Now();
}

void MdsServer::StampReply(ClientResponseMsg& out,
                           SerialNumber applied_sn) const {
  out.applied_sn = applied_sn;
  out.group_epoch = view_.fence_token;
}

std::shared_ptr<ClientResponseMsg> MdsServer::StatusReply(
    const Status& status) const {
  auto out = std::make_shared<ClientResponseMsg>();
  out->ok = status.ok();
  out->code = status.code();
  out->error = status.message();
  StampReply(*out, last_sn_);
  return out;
}

void MdsServer::HandleClientRequest(const net::Envelope&,
                                    const net::MessagePtr& msg,
                                    const ReplyFn& reply) {
  auto req = std::static_pointer_cast<const ClientRequestMsg>(msg);

  if (upgrade_ && upgrade_->switching()) {
    // Step 3: requests are saved in memory until the upgrade finishes.
    // Reads wait too: until steps 4 and 5 adopt the committed tail from the
    // SSP and the registrants, this tree may miss acked work, and step 2
    // already sends clients here.
    upgrade_->Buffer(std::move(req), reply);
    return;
  }

  if (commit_) {
    ProcessClientRequest(req, reply);
  } else if (role_ == ServerState::kStandby &&
             options_.standby_reads.serve_reads && !IsMutation(req->op)) {
    // Session-consistent read offload: a standby answers reads itself once
    // its applied sn has caught up to the client's session floor.
    reads_->HandleStandbyRead(req, reply);
  } else {
    ReplyStatus(reply, Status::Unavailable("not active"));
  }
}

void MdsServer::ProcessClientRequest(const RequestPtr& req,
                                     const ReplyFn& reply) {
  m_.cpu_wait_ns->Record(CpuBacklog());
  AfterLocal(ChargeCpu(OpCost(req->op)), [this, req, reply] {
    if (!commit_) {
      ReplyStatus(reply, Status::Unavailable("not active"));
      return;
    }
    if (!IsMutation(req->op)) {
      reads_->Execute(*req, reply);
      return;
    }
    // A distributed transaction is only genuinely distributed when the
    // other side of the operation (the rename destination's entry, or the
    // new directory's children) belongs to a different group; within a
    // single partition it commutes with ordinary mutations (the 1A3S
    // configuration of Figures 6/8 pays no transaction overhead).
    if (!shard_->StartTwoGroupTx(req, reply)) ExecuteMutation(req, reply);
  });
}

void MdsServer::ExecuteMutation(const RequestPtr& req, const ReplyFn& reply) {
  // Shard admission runs here — synchronously with the tree mutation and
  // journal append — not at request arrival: a cutover fence raised while
  // the request sat in the CPU queue must still bounce it.
  if (!shard_->AdmitMutation(*req, reply)) return;
  Bump(counters_.ops_served, m_.ops_served);
  Bump(counters_.mutations, m_.mutations);
  if (tree_.IsDuplicate(req->client)) {
    // Idempotent resend: the op already executed in a previous life of
    // this request; acknowledge success once that execution commits,
    // without re-journaling.
    commit_->AwaitResend(req->client, reply);
    return;
  }
  Result<journal::LogRecord> rec = tree_.Execute(RecordFor(*req, sim().Now()));
  if (!rec.ok()) {
    ReplyStatus(reply, rec.status());
    return;
  }
  commit_->Commit(*req, std::move(rec).value(), reply);
}

void MdsServer::AdvanceTo(BatchPtr batch) {
  last_sn_ = batch->sn;
  m_.last_sn->Set(static_cast<std::int64_t>(last_sn_));
  recent_batches_.push_back(std::move(batch));
  if (recent_batches_.size() > kRecentBatchCap) recent_batches_.pop_front();
}

void MdsServer::NoteFinalized(SerialNumber sn, bool replicated) {
  if (replicated) {
    committed_sn_ = std::max(committed_sn_, sn);
  } else {
    // The batch completed by timeouts alone: it exists only in this
    // process. Should we be deposed before it replicates, our namespace
    // holds uncommitted state and must be rebuilt (StepDownFromActive).
    dirty_ = true;
  }
}

// --- journal sync: standby/junior side ------------------------------------------

void MdsServer::HandleJournalPrepare(const net::Envelope& env,
                                     const net::MessagePtr& msg,
                                     const ReplyFn& reply) {
  const auto& req = net::Cast<JournalPrepareMsg>(msg);
  auto answer = [&reply](bool stale_fence = false) {
    auto ack = std::make_shared<JournalAckMsg>();
    ack->stale_fence = stale_fence;
    reply(ack);
  };

  // IO fencing: a sender with an older fence token than the view's is a
  // deposed active; refuse it so it steps down. The kNoFencing mutation
  // removes this whole layer (including the active-side collision
  // arbitration below) so the checker's mutation self-test can demonstrate
  // the split-brain/lost-ack anomalies fencing exists to prevent.
  if (options_.mutation != Mutation::kNoFencing &&
      req.fence < view_.fence_token) {
    m_.fenced_rejections->Add();
    obs_->tracer().Instant(
        "mds", "fenced_rejection", id(), options_.group,
        {{"stale_fence", static_cast<std::uint64_t>(req.fence)},
         {"view_fence", static_cast<std::uint64_t>(view_.fence_token)}});
    answer(/*stale_fence=*/true);
    return;
  }
  if (commit_ && options_.mutation != Mutation::kNoFencing) {
    // Two actives cannot coexist; the one with the newer fence wins.
    if (req.fence <= fence_) {
      answer(/*stale_fence=*/true);
      return;
    }
    StepDownFromActive("saw a newer fence in replication traffic");
  }

  // The fence check above trusts our view. Once our coordination session
  // may have expired (no confirmed contact for a session timeout), the
  // group may have elected past that view and counts us down: a deposed
  // active's batch accepted now would fork this replica from the new
  // active's journal. Stay silent until the session is confirmed again.
  if (options_.mutation != Mutation::kNoFencing && !commit_ &&
      sim().Now() >= last_session_ack() + coord::kSessionTimeout) {
    return;
  }
  if (req.batch == nullptr) {  // malformed prepare; nothing to apply
    answer();
    return;
  }
  const journal::Batch& batch = *req.batch;
  if (batch.sn <= last_sn_) {
    // "Only if sn from the active is larger than the current maximum serial
    // number, the standby applies journals" — duplicate, already applied.
    if (options_.mutation == Mutation::kNoSnDedup) {
      // Mutation self-test: re-apply the replayed batch as a broken
      // implementation without sn suppression would. The records carry
      // txid 0 so the tree's transaction-id replay guard cannot save us —
      // this is exactly the double-apply the paper's sn check prevents
      // (re-added blocks, resurrected files), and the history checker
      // must flag it.
      for (journal::LogRecord rec : batch.records) {
        rec.txid = 0;
        (void)tree_.Apply(rec);
      }
    }
    m_.duplicate_batches->Add();
    answer();
    return;
  }
  pending_batches_.emplace(batch.sn, req.batch);
  ApplyReadyBatches();
  if (!pending_batches_.empty() && !backfill_inflight_) {
    // Backfill: pull from the sender until the buffered gap closes.
    backfill_inflight_ = true;
    CatchUp(
        env.from,
        [this](const RenewJournalReplyMsg&) {
          return !pending_batches_.empty();
        },
        [this](Result<SerialNumber>) { backfill_inflight_ = false; });
  }
  answer();
}

void MdsServer::ApplyReadyBatches() {
  while (true) {
    auto it = pending_batches_.find(last_sn_ + 1);
    if (it == pending_batches_.end()) break;
    ApplyBatch(it->second);
    pending_batches_.erase(it);
  }
  // Anything at or below last_sn_ is now garbage.
  while (!pending_batches_.empty() &&
         pending_batches_.begin()->first <= last_sn_) {
    pending_batches_.erase(pending_batches_.begin());
  }
}

void MdsServer::ApplyBatch(const BatchPtr& batch) {
  // Every record applies even after a divergence, so a sabotaged replica
  // keeps advancing and the divergence audit sees its whole drift.
  Status first_error = Status::Ok();
  for (const journal::LogRecord& rec : batch->records) {
    Status s = tree_.Apply(rec);
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  if (!first_error.ok()) {
    MAMS_ERROR("mds", "%s: replay divergence: %s", name().c_str(),
               first_error.ToString().c_str());
  }
  counters_.apply_records += batch->records.size();
  counters_.apply_waves += batch->records.size();
  ++counters_.apply_serial_fallbacks;
  Bump(counters_.batches_applied, m_.batches_applied);
  AdvanceTo(batch);
  // Reads parked on this sn (or earlier) can be answered now.
  reads_->DrainParked();
}

void MdsServer::CatchUp(NodeId from,
                        std::function<bool(const RenewJournalReplyMsg&)> more,
                        std::function<void(Result<SerialNumber>)> done) {
  auto req = std::make_shared<RenewJournalFetchMsg>();
  req->after_sn = last_sn_;
  net::RpcCall::Start(
      *this, from, req, kFetchRpc,
      [this, from, more = std::move(more), done = std::move(done),
       before = last_sn_,
       discards = discards_](Result<net::MessagePtr> r) mutable {
        if (r.ok() && discards != discards_) {
          r = Status::Aborted("namespace discarded since the fetch");
        }
        if (!r.ok()) {
          done(r.status());
          return;
        }
        const auto& reply = net::Cast<RenewJournalReplyMsg>(r.value());
        ApplyFetchedBatches(reply);
        if (last_sn_ > before && more(reply)) {
          CatchUp(from, std::move(more), std::move(done));
          return;
        }
        done(reply.active_sn);
      });
}

void MdsServer::Resend(const std::vector<NodeId>& peers,
                       SerialNumber after_sn) {
  for (const BatchPtr& batch : recent_batches_) {
    if (batch->sn <= after_sn) continue;
    auto msg = std::make_shared<JournalPrepareMsg>();
    msg->fence = fence_;
    msg->batch = batch;
    for (NodeId peer : peers) {
      if (peer != id()) Send(peer, msg);
    }
  }
}

void MdsServer::ApplyFetchedBatches(const RenewJournalReplyMsg& resp) {
  for (const BatchPtr& b : resp.batches) {
    if (b->sn > last_sn_) pending_batches_.emplace(b->sn, b);
  }
  ApplyReadyBatches();
}

std::uint64_t MdsServer::ApplyPoolRecords(
    const std::vector<storage::SspRecord>& records) {
  std::uint64_t applied_bytes = 0;
  for (const auto& rec : records) {
    auto batch = journal::Batch::Deserialize(rec.bytes.vector());
    if (!batch.ok()) {
      MAMS_ERROR("mds", "%s: corrupt journal batch sn=%llu", name().c_str(),
                 (unsigned long long)rec.sn);
      continue;
    }
    if (batch.value().sn != last_sn_ + 1) continue;
    ApplyBatch(std::make_shared<const journal::Batch>(std::move(batch.value())));
    applied_bytes += rec.bytes.size();
  }
  return applied_bytes;
}

// --- message dispatch ------------------------------------------------------------

void MdsServer::HandleGroupRegister(const net::Envelope&,
                                    const net::MessagePtr& msg,
                                    const ReplyFn& reply) {
  const auto& req = net::Cast<GroupRegisterMsg>(msg);
  if (commit_ && req.fence > fence_) {
    StepDownFromActive("registration round from newer active");
  }
  // Final round only: a registrant still AHEAD of the new active after its
  // catch-up fetch holds batches that were never committed (a partial
  // replication nobody else has). Those phantom applications must be
  // discarded, or the new active's re-execution of the same client retries
  // would silently diverge from this replica. The probe round
  // (`discard_ahead` false) leaves the tail intact so the new active can
  // adopt committed batches from it first.
  if (req.discard_ahead && req.active_sn < last_sn_ && !commit_) {
    MAMS_INFO("mds",
              "%s: ahead of new active (sn %llu > %llu); discarding "
              "uncommitted state",
              name().c_str(), (unsigned long long)last_sn_,
              (unsigned long long)req.active_sn);
    DiscardNamespace();
    if (role_ == ServerState::kStandby) BecomeRole(ServerState::kJunior);
  }
  // A deposed ex-active rejoins the view before acking so the new active
  // can immediately confirm it as standby/junior.
  auto ack_now = [this, reply] {
    auto ack = std::make_shared<GroupRegisterAckMsg>();
    ack->max_sn = last_sn_;
    reply(ack);
  };
  if (!coord_client_->registered()) {
    JoinGroup(ServerState::kJunior, [ack_now](Status) { ack_now(); });
  } else {
    ack_now();
  }
}

void MdsServer::RegisterHandlers() {
  auto bind = [this](auto handler) {
    return [this, handler](auto& env, auto& msg, auto& reply) {
      (this->*handler)(env, msg, reply);
    };
  };
  OnRequest(net::kClientRequest, bind(&MdsServer::HandleClientRequest));
  OnRequest(net::kJournalPrepare, bind(&MdsServer::HandleJournalPrepare));
  OnRequest(net::kGroupRegister, bind(&MdsServer::HandleGroupRegister));
  // Owners are looked up per message: a crash rebuilds them.
  OnRequest(net::kRenewCommand, [this](auto&, auto& msg, auto&) {
    const auto& cmd = net::Cast<RenewCommandMsg>(msg);
    if (role_ == ServerState::kStandby && cmd.fence >= view_.fence_token) {
      // The active only renews nodes the view classifies as juniors. If we
      // still think we are a standby, our demotion watch event was lost in
      // a partition (watch pushes are fire-and-forget) — re-fetch the view
      // and reconcile instead of ignoring the command forever.
      coord_client_->GetView(options_.group,
                             [this](Result<coord::GroupView> r) {
                               if (r.ok()) OnWatchEvent(r.value());
                             });
      return;
    }
    renewal_->HandleCommand(msg);
  });
  OnRequest(net::kRenewProgress, [this](auto& env, auto& msg, auto&) {
    renewal_->HandleProgress(env, msg);
  });
  OnRequest(net::kRenewJournalFetch, [this](auto&, auto& msg, auto& reply) {
    const auto& req = net::Cast<RenewJournalFetchMsg>(msg);
    auto out = std::make_shared<RenewJournalReplyMsg>();
    out->active_sn = last_sn_;
    for (const auto& b : recent_batches_) {
      if (b->sn <= req.after_sn) continue;
      if (out->batches.size() >= kFetchBatchCap) break;
      out->payload_bytes += b->EncodedSize();
      out->batches.push_back(b);
    }
    reply(out);
  });
  OnRequest(net::kShardTransfer, [this](auto&, auto& msg, auto& reply) {
    shard_->HandleTransfer(msg, reply);
  });
  OnRequest(net::kShardControl, [this](auto&, auto& msg, auto& reply) {
    shard_->HandleControl(msg, reply);
  });
  OnRequest(net::kLeaseRevokeAck, [this](auto& env, auto& msg, auto&) {
    reads_->HandleRevokeAck(env.from, msg);
  });
  OnRequest(net::kBlockReport, [this](auto&, auto& msg, auto& reply) {
    const auto& report = net::Cast<BlockReportMsg>(msg);
    AfterLocal(ChargeCpu(BlockReportCost(report)), [this, msg, reply] {
      const auto& rep = net::Cast<BlockReportMsg>(msg);
      blocks_.IngestReport(rep.data_server, rep.blocks);
      reply(std::make_shared<BlockReportAckMsg>());
    });
  });
}

}  // namespace mams::core
