#include "core/mds_server.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string_view>

#include "fsns/path.hpp"
#include "net/rpc.hpp"

namespace mams::core {

namespace {

// --- RPC policies (net/rpc.hpp) and protocol timers ----------------------
// One policy per call family; all retry behaviour is declared here instead
// of hand-rolled timers at the call sites.

/// Algorithm-1 election bids. Unlimited attempts paced like the paper's
/// periodic lock polling; not idempotent because every bid redraws its
/// random number and refreshes max_sn. The attempt timeout must ride out
/// the coordination service's election window plus the RPC budget.
constexpr net::RpcPolicy kElectionBid{
    .attempt_timeout = 4 * kSecond,
    .max_attempts = 0,
    .backoff_base = 200 * kMillisecond,
    .backoff_multiplier = 1.0,
    .jitter = 0.0,
    .idempotent = false,
};

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

/// Failover step 5: the gather window, and one registration attempt per
/// peer inside it — peers that miss it are picked up by the renewing scan.
constexpr SimTime kRegisterWait = 300 * kMillisecond;
constexpr net::RpcPolicy kRegisterRpc{
    .attempt_timeout = 250 * kMillisecond,
    .max_attempts = 1,
};

/// Renewing (Section III.D): a junior this few batches behind enters the
/// final synchronization stage; juniors report progress at this cadence.
constexpr SerialNumber kFinalSyncGap = 32;
constexpr SimTime kRenewProgressInterval = 200 * kMillisecond;

/// Junior-side final-sync pulls against the active during renewing:
/// retried until the junior catches up or the renew is abandoned.
constexpr net::RpcPolicy kRenewFetchRpc{
    .attempt_timeout = kSecond,
    .max_attempts = 0,
    .backoff_base = 500 * kMillisecond,
    .backoff_multiplier = 1.0,
    .jitter = 0.0,
};

/// Standby read parking. A read whose min_sn is at most kMaxParkGap batches
/// ahead of the standby's applied sn waits in a queue of at most
/// kMaxParked reads until the gap closes; larger gaps and overflow bounce
/// to the active immediately, and a read still parked after kMaxParkWait
/// bounces too (the standby is lagging, not merely behind by one sync).
constexpr SerialNumber kMaxParkGap = 64;
constexpr std::size_t kMaxParked = 64;
constexpr SimTime kMaxParkWait = 500 * kMillisecond;

/// Bound on outstanding (directory, client) lease grants; at the cap, reads
/// are served without a lease rather than evicting someone else's.
constexpr std::size_t kMaxLeaseGrants = 4096;

}  // namespace

const char* ClientOpName(ClientOp op) noexcept {
  switch (op) {
    case ClientOp::kCreate:
      return "create";
    case ClientOp::kMkdir:
      return "mkdir";
    case ClientOp::kDelete:
      return "delete";
    case ClientOp::kRename:
      return "rename";
    case ClientOp::kGetFileInfo:
      return "getfileinfo";
    case ClientOp::kListDir:
      return "listdir";
    case ClientOp::kSetReplication:
      return "setReplication";
    case ClientOp::kAddBlock:
      return "addBlock";
    case ClientOp::kCompleteFile:
      return "completeFile";
    case ClientOp::kSetOwner:
      return "setOwner";
    case ClientOp::kSetPermission:
      return "setPermission";
    case ClientOp::kSetTimes:
      return "setTimes";
  }
  return "unknown";
}

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
  m_.ops_served = metrics.counter("mds.ops_served");
  m_.mutations = metrics.counter("mds.mutations");
  m_.reads = metrics.counter("mds.reads");
  m_.batches_synced = metrics.counter("mds.batches_synced");
  m_.batches_applied = metrics.counter("mds.batches_applied");
  m_.duplicate_batches = metrics.counter("mds.duplicate_batches");
  m_.elections_won = metrics.counter("mds.elections_won");
  m_.elections_lost = metrics.counter("mds.elections_lost");
  m_.renews_completed = metrics.counter("mds.renews_completed");
  m_.fenced_rejections = metrics.counter("mds.fenced_rejections");
  m_.buffered_during_upgrade = metrics.counter("mds.buffered_during_upgrade");
  m_.standby_reads_served = metrics.counter("mds.standby_reads_served");
  m_.standby_reads_parked = metrics.counter("mds.standby_reads_parked");
  m_.standby_reads_bounced = metrics.counter("mds.standby_reads_bounced");
  m_.shard_bounces = metrics.counter("mds.shard_bounces");
  m_.leases_granted = metrics.counter("mds.leases_granted");
  m_.leases_revoked = metrics.counter("mds.leases_revoked");
  m_.lease_replies_held = metrics.counter("mds.lease_replies_held");
  m_.lease_barrier_expiries = metrics.counter("mds.lease_barrier_expiries");
  m_.migrations_completed = metrics.counter("mds.migrations_completed");
  m_.cross_group_renames = metrics.counter("mds.cross_group_renames");
  m_.sync_batch_ns = metrics.histogram("mds.sync_batch_ns");
  m_.batch_records = metrics.histogram("mds.batch_records");
  m_.resolve_ns = metrics.histogram("mds.resolve_ns");
  m_.standby_read_staleness_sn =
      metrics.histogram("mds.standby_read_staleness_sn");
  m_.last_sn = metrics.gauge("mds.last_sn." + this->name());
  map_ = options_.partition_map;
  coord_client_ = std::make_unique<coord::CoordClient>(*this, coord_);
  coord_client_->SetWatchHandler(
      [this](const coord::GroupView& v) { OnWatchEvent(v); });
  coord_client_->SetMapHandler(
      [this](std::uint64_t epoch, const std::vector<char>& bytes) {
        AdoptMap(epoch, bytes);
      });
  coord_client_->SetSessionLostHandler([this] {
    // The session expired while we were partitioned: whatever we believed
    // about our role is stale. A deposed active steps down (and rebuilds
    // if it holds uncommitted state); everyone rejoins as a junior and is
    // renewed back to standby by the current active.
    if (role_ == ServerState::kActive) {
      // Test hook: an active that ignores its own session expiry models
      // the classic fencing scenario (GC pause / stuck clock) — it keeps
      // serving while a successor is elected. Only the fence tokens stand
      // between that and split-brain, which is exactly what the checker's
      // fencing mutation has to demonstrate.
      if (!options_.test_hooks.disable_fencing) {
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

// --- observability helpers ---------------------------------------------------

void MdsServer::StartStep(std::string step_name) {
  auto& tracer = obs_->tracer();
  tracer.End(step_span_);
  step_span_ = tracer.Begin("failover", std::move(step_name), id(),
                            options_.group);
}

void MdsServer::EndUpgradeSpans(bool ok) {
  auto& tracer = obs_->tracer();
  std::vector<obs::TraceArg> outcome{{"ok", ok ? "true" : "false"}};
  tracer.End(step_span_, outcome);
  tracer.End(buffer_span_, outcome);
  tracer.End(switch_span_, outcome);
  tracer.End(election_span_, std::move(outcome));
}

void MdsServer::StartRenewPhase(std::string phase) {
  auto& tracer = obs_->tracer();
  tracer.End(renew_phase_span_);
  renew_phase_span_ =
      tracer.Begin("renew", std::move(phase), id(), options_.group);
}

void MdsServer::EndRenewSpan(const char* outcome) {
  auto& tracer = obs_->tracer();
  tracer.End(renew_phase_span_);
  tracer.End(renew_span_,
             {{"outcome", std::string(outcome)},
              {"sn", static_cast<std::uint64_t>(last_sn_)}});
}

void MdsServer::Start(ServerState initial_role) {
  role_ = initial_role;  // desired; confirmed during OnStart
  Boot();
}

// --- lifecycle ---------------------------------------------------------------

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
      AfterLocal(delay, [this, initial] { OnStartRetry(initial); });
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
            writer_ = std::make_unique<journal::Writer>(
                [this](journal::Batch b, std::vector<char> bytes) {
                  OnBatchSealed(std::move(b), std::move(bytes));
                });
            writer_->Reseed(last_sn_, tree_.last_txid());
            BecomeRole(ServerState::kActive);
          });
    } else {
      BecomeRole(initial);
    }
  });
}

void MdsServer::OnStartRetry(ServerState initial) {
  if (!alive()) return;
  role_ = initial;
  OnStart();
}

void MdsServer::Retire() {
  if (!alive()) return;
  obs_->tracer().Instant("mds", "retire", id(), options_.group);
  FlushParkedReads("retiring");
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
  EndUpgradeSpans(/*ok=*/false);
  EndRenewSpan("crashed");
  obs_->tracer().End(checkpoint_span_, {{"ok", "crashed"}});
  obs_->tracer().Instant("mds", "crash", id(), options_.group);
  coord_client_->Stop();
  renew_scan_timer_.reset();
  checkpoint_timer_.reset();
  renew_progress_timer_.reset();
  writer_.reset();
  // All volatile state is lost with the process image.
  tree_.Reset();
  blocks_.Clear();
  last_sn_ = 0;
  committed_sn_ = 0;
  cpu_free_at_ = 0;
  pending_sync_.clear();
  finalizing_syncs_ = false;
  pending_replies_.clear();
  sync_targets_.clear();
  recent_batches_.clear();
  pending_batches_.clear();
  backfill_inflight_ = false;
  // Parked reads die with the process; the clients' RPC layer times the
  // requests out and falls back to the active.
  parked_reads_.clear();
  inflight_tx_ = 0;
  tx_queue_.clear();
  election_in_progress_ = false;
  upgrade_in_progress_ = false;
  join_retries_ = 0;
  buffered_requests_.clear();
  renew_ = RenewCursor{};
  renew_target_ = kInvalidNode;
  latest_image_.reset();
  view_ = coord::GroupView{};
  fence_ = 0;
  dirty_ = false;
  // Shard volatile state: drives die with the process (the journal-derived
  // ShardState is rebuilt during recovery); the cached map resets to the
  // seed and is re-fetched on rejoin.
  drives_.clear();
  rename_drives_.clear();
  migration_stats_.clear();
  // Lease state is volatile by design: clients are protected by the TTL
  // and by the session-expiry bound on how soon a successor can serve.
  ResetLeaseState();
  map_ = options_.partition_map;
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
  // A replica that stops being a standby can no longer promise
  // session-consistent reads; bounce whatever is parked.
  if (role != ServerState::kStandby) FlushParkedReads("role change");
  if (role == ServerState::kActive) {
    if (directory_ != nullptr) {
      directory_->active_of[options_.group] = id();
    }
    // Seed the 2PC target set from the current view; watch events keep it
    // fresh afterwards. (Standbys that registered before we became active
    // would otherwise never receive journals.)
    sync_targets_.clear();
    for (const auto& [node, state] : view_.states) {
      if (node != id() && state == ServerState::kStandby) {
        sync_targets_.insert(node);
      }
    }
    if (!writer_) {
      writer_ = std::make_unique<journal::Writer>(
          [this](journal::Batch b, std::vector<char> bytes) {
            OnBatchSealed(std::move(b), std::move(bytes));
          });
      writer_->Reseed(last_sn_, tree_.last_txid());
    }
    renew_scan_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), options_.renew_scan_period, [this] { RenewScan(); });
    renew_scan_timer_->Start();
    checkpoint_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), options_.checkpoint_interval, [this] { WriteCheckpoint(); });
    checkpoint_timer_->Start();
  } else {
    renew_scan_timer_.reset();
    checkpoint_timer_.reset();
    writer_.reset();
    // Only an active grants leases, so dropping the table here keeps the
    // invariant that a (re)elected active starts lease-free. Barriers stay:
    // their held completions are for *committed* mutations, and acks/TTL
    // release them correctly in any role.
    leases_.clear();
    lease_count_ = 0;
  }
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
          if (s.ok()) FetchMapFromCoord();
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

  // A deposed active stops immediately (Test A: lock stolen via the global
  // view; also covers fencing after a spurious session expiry). The
  // fencing test hook keeps the oblivious active serving (see the session
  // handler in the constructor).
  if (role_ == ServerState::kActive && view.lock_holder != id()) {
    if (!options_.test_hooks.disable_fencing) {
      StepDownFromActive("lost the group lock");
    }
    return;
  }

  // Keep the 2PC target set in step with the view: standbys only.
  if (role_ == ServerState::kActive) {
    for (auto it = sync_targets_.begin(); it != sync_targets_.end();) {
      if (view_.StateOf(*it) == ServerState::kStandby) {
        ++it;
      } else {
        it = sync_targets_.erase(it);
      }
    }
    for (const auto& [node, state] : view_.states) {
      if (node != id() && state == ServerState::kStandby) {
        sync_targets_.insert(node);
      }
    }
  }

  // Demotion observed in the view (the elected standby flipped us).
  if (role_ == ServerState::kStandby &&
      view.StateOf(id()) == ServerState::kJunior) {
    BecomeRole(ServerState::kJunior);
  }
  // Promotion observed in the view (the active finished renewing us). The
  // active only promotes on a progress report showing a near-zero gap, so
  // our applied prefix is consistent — cancel whatever renewal machinery
  // is still spinning and serve as a standby (the live stream + backfill
  // cover any residual tail).
  if (role_ == ServerState::kJunior &&
      view.StateOf(id()) == ServerState::kStandby) {
    if (renew_.running) EndRenewSpan("promoted");
    renew_.running = false;
    renew_progress_timer_.reset();
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

// --- election (Algorithm 1) ---------------------------------------------------

void MdsServer::MaybeStartElection(const coord::GroupView& view) {
  if (!alive() || election_in_progress_ || upgrade_in_progress_) return;
  if (role_ != ServerState::kStandby && role_ != ServerState::kJunior) return;
  // Juniors only stand when no standby is left (Algorithm 1, line 8).
  if (role_ == ServerState::kJunior &&
      view.CountInState(ServerState::kStandby) > 0) {
    return;
  }
  election_in_progress_ = true;
  trace_ = FailoverTrace{};
  trace_.group = options_.group;
  trace_.elected = id();
  trace_.failure_detected = sim().Now();
  election_span_ =
      obs_->tracer().Begin("failover", "election", id(), options_.group);
  BidForLock();
}

void MdsServer::BidForLock() {
  if (!election_in_progress_ || !alive()) return;
  if (trace_.election_started < 0) trace_.election_started = sim().Now();
  // The bid loop re-bids with a fresh draw whenever the coordination RPC
  // fails or a window closes without a grant while the lock is still free
  // ("each standby tries to obtain a distributed lock periodically");
  // pacing comes from kElectionBid. It concludes only when the
  // lock is decided — granted to us or observed held by a peer — or the
  // election is abandoned (cancel hook).
  coord_client_->BidLoop(
      options_.group,
      [this] {
        // Juniors lose to any standby; sn breaks junior-vs-junior ties.
        // Re-evaluated per bid so a mid-election demotion takes effect.
        return role_ == ServerState::kStandby
                   ? static_cast<std::uint64_t>(rng_.Range(1, 1 << 30))
                   : 0;
      },
      [this] { return last_sn_; }, kElectionBid,
      [this] { return !election_in_progress_ || !alive(); },
      [this](Result<coord::CoordClient::LockResult> r) {
        if (!election_in_progress_) return;
        if (!r.ok()) return;  // cancelled mid-flight
        if (r.value().granted) {
          fence_ = r.value().fence;
          trace_.lock_granted = sim().Now();
          ++counters_.elections_won;
          m_.elections_won->Add();
          auto& tracer = obs_->tracer();
          tracer.End(election_span_,
                     {{"won", "true"},
                      {"fence", static_cast<std::uint64_t>(fence_)}});
          switch_span_ =
              tracer.Begin("failover", "switch", id(), options_.group);
          buffer_span_ = tracer.Begin("failover", "step3_buffer_mutations",
                                      id(), options_.group);
          upgrade_in_progress_ = true;
          StartStep("step1_check_state");
          UpgradeStep1CheckState();
          return;
        }
        // Someone else won; they will upgrade. Stop competing (the
        // coordination events notify us of the outcome).
        ++counters_.elections_lost;
        m_.elections_lost->Add();
        election_in_progress_ = false;
        obs_->tracer().End(election_span_, {{"won", "false"}});
      });
}

// --- failover protocol: the six upgrade steps (Section III.C) --------------------

void MdsServer::UpgradeStep1CheckState() {
  coord_client_->GetView(options_.group, [this](Result<coord::GroupView> r) {
    if (!r.ok()) {
      AbortUpgrade("cannot read view");
      return;
    }
    view_ = std::move(r).value();
    // Step 1: a node that was demoted to junior while competing must stop
    // upgrading and give up the lock; re-election follows.
    if (view_.StateOf(id()) == ServerState::kJunior &&
        role_ == ServerState::kStandby) {
      AbortUpgrade("demoted to junior during election");
      return;
    }
    StartStep("step2_flip_states");
    UpgradeStep2FlipStates();
  });
}

void MdsServer::UpgradeStep2FlipStates() {
  // Step 2: set ourselves active in the global view. From this moment
  // operations from the previous active are refused by all nodes (its
  // fence token is stale).
  coord_client_->SetState(
      options_.group, id(), ServerState::kActive, fence_,
      [this](Result<coord::GroupView> r) {
        if (!r.ok()) {
          AbortUpgrade("cannot flip own state: " + r.status().ToString());
          return;
        }
        view_ = std::move(r).value();
        // Step 3 is implicit: HandleClientRequest buffers mutations while
        // upgrade_in_progress_ and keeps serving reads.
        StartStep("step4_reflush_journals");
        UpgradeStep4ReflushJournals();
      });
}

void MdsServer::UpgradeStep4ReflushJournals() {
  // Before re-flushing, drain any journal tail the previous active managed
  // to persist in the SSP but never replicated to us (e.g. while every
  // standby was transiently demoted). Acked operations must never be lost.
  //
  // The drain consults EVERY placement replica, not one read with
  // failover: appends ack on the first replica, so a pool node that was
  // down during a write serves a stale-but-successful reply after restart,
  // which would end a single-read drain early and silently lose the tail
  // the other replica still holds.
  UpgradeStep4DrainReplica(0, /*progressed=*/false);
}

void MdsServer::UpgradeStep4DrainReplica(std::size_t replica,
                                         bool progressed) {
  if (!upgrade_in_progress_) return;
  const std::vector<NodeId> replicas = ssp_->Placement(JournalFile());
  if (replica >= replicas.size()) {
    // A replica that advanced us may have exposed records another replica
    // holds the successor of (holes interleave): re-scan until a full
    // pass over the placement makes no progress.
    if (progressed) {
      UpgradeStep4DrainReplica(0, false);
    } else {
      UpgradeStep4DoReflush();
    }
    return;
  }
  ssp_->ReadAfterOn(
      replicas[replica], JournalFile(), last_sn_,
      [this, replica, progressed](
          Result<std::shared_ptr<const storage::SspReadReplyMsg>> r) {
        if (!upgrade_in_progress_) return;
        bool advanced = false;
        bool more = false;
        if (r.ok() && r.value()->found) {
          advanced = ApplyPoolRecords(r.value()->records) > 0;
          more = !r.value()->eof;
        }
        if (advanced && more) {
          UpgradeStep4DrainReplica(replica, true);  // keep draining this one
        } else {
          // Unreachable, stale, or a hole this replica cannot fill: move
          // on; an unreadable replica behaves like an empty one.
          UpgradeStep4DrainReplica(replica + 1, progressed || advanced);
        }
      });
}

void MdsServer::UpgradeStep4DoReflush() {
  // Step 4: re-flush the last cached journals to the whole group so that
  // nothing the previous active half-replicated is missing anywhere.
  // Receivers dedup by sn, so this is idempotent.
  const std::size_t n = std::min<std::size_t>(recent_batches_.size(), 8);
  for (std::size_t i = recent_batches_.size() - n; i < recent_batches_.size();
       ++i) {
    auto msg = std::make_shared<JournalPrepareMsg>();
    msg->group = options_.group;
    msg->fence = fence_;
    msg->batch = recent_batches_[i];
    for (NodeId peer : members_) {
      if (peer != id()) Send(peer, msg);
    }
  }
  StartStep("step5_gather_registrations");
  UpgradeStep5GatherRegistrations();
}

void MdsServer::UpgradeStep5GatherRegistrations() {
  // Step 5: every group member registers with the elected standby, which
  // confirms each one's state from its journal position. The first round
  // is a non-destructive probe: a registrant AHEAD of us may hold batches
  // that committed on standby acks while the SSP copy failed — Algorithm 1
  // draws randomly among standbys, so the election can pick a laggard.
  // Those batches must be adopted, not destroyed; only after catching up
  // does the final round ask still-ahead peers to discard.
  UpgradeStep5Round(/*final_round=*/false);
}

void MdsServer::UpgradeStep5Round(bool final_round) {
  auto acks = std::make_shared<std::map<NodeId, SerialNumber>>();
  auto req = std::make_shared<GroupRegisterMsg>();
  req->group = options_.group;
  req->new_active = id();
  req->fence = fence_;
  req->active_sn = last_sn_;
  req->discard_ahead = final_round;
  for (NodeId peer : members_) {
    if (peer == id()) continue;
    net::RpcCall::Start(
        *this, peer, req, kRegisterRpc,
        [this, peer, acks](Result<net::MessagePtr> r) {
          if (!r.ok()) return;  // dead peer: stays Down in the view
          const auto& ack = net::Cast<GroupRegisterAckMsg>(r.value());
          (*acks)[peer] = ack.max_sn;
        });
  }
  AfterLocal(kRegisterWait, [this, acks, final_round] {
    if (!upgrade_in_progress_) return;
    NodeId source = kInvalidNode;
    SerialNumber target_sn = last_sn_;
    for (const auto& [peer, sn] : *acks) {
      if (sn > target_sn) {
        target_sn = sn;
        source = peer;
      }
    }
    // Nobody ahead: settle now — the second round (and its extra RTT) only
    // happens on the rare failover where committed state must be adopted.
    if (final_round || source == kInvalidNode) {
      UpgradeStep5Classify(*acks);
      return;
    }
    UpgradeStep5CatchUp(source, target_sn);
  });
}

void MdsServer::UpgradeStep5CatchUp(NodeId source, SerialNumber target_sn) {
  if (!upgrade_in_progress_) return;
  if (last_sn_ >= target_sn) {
    UpgradeStep5Round(/*final_round=*/true);
    return;
  }
  auto req = std::make_shared<RenewJournalFetchMsg>();
  req->group = options_.group;
  req->after_sn = last_sn_;
  net::RpcCall::Start(
      *this, source, req, kFetchRpc,
      [this, source, target_sn,
       before = last_sn_](Result<net::MessagePtr> r) {
        if (!upgrade_in_progress_) return;
        if (r.ok()) {
          ApplyFetchedBatches(net::Cast<RenewJournalReplyMsg>(r.value()));
        }
        if (r.ok() && last_sn_ > before) {
          UpgradeStep5CatchUp(source, target_sn);  // next chunk
          return;
        }
        // Fetch failed or stalled (peer gone, or its recent-batch window
        // no longer covers our gap): finalize with what we have — the
        // peer classifies as a junior and renewal reconciles it.
        UpgradeStep5Round(/*final_round=*/true);
      });
}

void MdsServer::UpgradeStep5Classify(
    const std::map<NodeId, SerialNumber>& acks) {
  for (const auto& [peer, sn] : acks) {
    const ServerState target =
        sn == last_sn_ ? ServerState::kStandby : ServerState::kJunior;
    coord_client_->SetState(options_.group, peer, target, fence_,
                            [](Result<coord::GroupView>) {});
    if (target == ServerState::kStandby) sync_targets_.insert(peer);
  }
  StartStep("step6_become_active");
  UpgradeStep6BecomeActive();
}

void MdsServer::UpgradeStep6BecomeActive() {
  upgrade_in_progress_ = false;
  election_in_progress_ = false;
  BecomeRole(ServerState::kActive);
  trace_.switch_completed = sim().Now();
  if (failover_log_ != nullptr) failover_log_->Record(trace_);
  // Resume whatever shard work the previous active left durable in the
  // journal (roll migrations forward/abort them, re-drive rename intents)
  // before serving the buffered mutations, which the shard fences gate.
  ResumeShardState();
  // Commit the requests buffered during the switch (step 3/6).
  auto buffered = std::move(buffered_requests_);
  buffered_requests_.clear();
  const auto buffered_count = static_cast<std::uint64_t>(buffered.size());
  for (auto& [req, reply] : buffered) {
    ProcessClientRequest(req, reply);
  }
  auto& tracer = obs_->tracer();
  tracer.End(step_span_);
  tracer.End(buffer_span_, {{"buffered", buffered_count}});
  tracer.End(switch_span_,
             {{"ok", "true"}, {"sn", static_cast<std::uint64_t>(last_sn_)}});
}

void MdsServer::AbortUpgrade(const std::string& why) {
  MAMS_WARN("mds", "%s: upgrade aborted: %s", name().c_str(), why.c_str());
  upgrade_in_progress_ = false;
  election_in_progress_ = false;
  EndUpgradeSpans(/*ok=*/false);
  coord_client_->ReleaseLock(options_.group, [](Status) {});
  fence_ = 0;
  // Buffered mutations cannot be honored here; clients retry at the next
  // active after their RPC deadline.
  buffered_requests_.clear();
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
  const bool dirty = dirty_ || !pending_replies_.empty() ||
                     !pending_sync_.empty() ||
                     (writer_ && writer_->pending_records() > 0);
  BecomeRole(ServerState::kJunior);
  fence_ = 0;
  // Obsolete buffered data may still be flushed to peers and the SSP; the
  // sn rule and fencing make it harmless (Section III.C). Fail our pending
  // client replies so callers re-resolve the active.
  for (auto& [txid, replies] : pending_replies_) {
    for (auto& reply : replies) {
      ReplyStatus(reply, Status::Unavailable("server deposed"));
    }
  }
  pending_replies_.clear();
  pending_sync_.clear();
  sync_targets_.clear();
  // Shard drives are this active's volatile plans; the successor rebuilds
  // its own from the journal-derived ShardState.
  ResetShardVolatileState();
  if (dirty) {
    MAMS_INFO("mds", "%s: discarding uncommitted namespace state",
              name().c_str());
    tree_.Reset();
    blocks_.Clear();
    last_sn_ = 0;
    recent_batches_.clear();
    pending_batches_.clear();
    renew_ = RenewCursor{};
    dirty_ = false;
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

void MdsServer::ReplyStatus(const ReplyFn& reply, const Status& status) {
  auto out = std::make_shared<ClientResponseMsg>();
  out->ok = status.ok();
  out->code = status.code();
  out->error = status.message();
  StampReply(*out, last_sn_);
  reply(out);
}

void MdsServer::HandleClientRequest(const net::Envelope&,
                                    const net::MessagePtr& msg,
                                    const ReplyFn& reply) {
  auto req = std::static_pointer_cast<const ClientRequestMsg>(msg);

  if (req->tx_participant) {
    // Cross-group coordination leg: validate and charge only.
    if (role_ != ServerState::kActive) {
      ReplyStatus(reply, Status::Unavailable("participant not active"));
      return;
    }
    AfterLocal(ChargeCpu(options_.costs.tx_participant), [this, req, reply] {
      if (role_ != ServerState::kActive) {
        ReplyStatus(reply, Status::Unavailable("participant not active"));
        return;
      }
      // The leg's validity rests on this group owning the other side of
      // the transaction (the directory's children / rename destination);
      // a moved slot bounces so the coordinator re-routes.
      const std::uint32_t slot = req->op == ClientOp::kRename
                                     ? map_.SlotOf(req->path2)
                                     : map_.SlotOfDir(req->path);
      if (!OwnsSlotForRead(slot)) {
        ShardBounce(reply, "participant does not own slot");
        return;
      }
      ReplyStatus(reply, Status::Ok());
    });
    return;
  }

  if (upgrade_in_progress_) {
    // Step 3: reads are allowed; mutations are saved in memory and not
    // committed until the upgrade finishes.
    if (IsMutation(req->op)) {
      ++counters_.buffered_during_upgrade;
      m_.buffered_during_upgrade->Add();
      buffered_requests_.emplace_back(std::move(req), reply);
      return;
    }
    ExecuteRead(*req, reply);
    return;
  }

  if (role_ != ServerState::kActive) {
    // Session-consistent read offload: a standby answers reads itself once
    // its applied sn has caught up to the client's session floor.
    if (role_ == ServerState::kStandby && options_.standby_reads.serve_reads &&
        !IsMutation(req->op)) {
      HandleStandbyRead(req, reply);
      return;
    }
    ReplyStatus(reply, Status::Unavailable("not active"));
    return;
  }
  ProcessClientRequest(req, reply);
}

// --- standby read offload ----------------------------------------------------

void MdsServer::HandleStandbyRead(
    const std::shared_ptr<const ClientRequestMsg>& req, const ReplyFn& reply) {
  const SerialNumber min_sn =
      options_.test_hooks.ignore_min_sn ? 0 : req->min_sn;
  // Staleness as seen at arrival: how far this standby's applied journal
  // trails the client's session floor (0 when already caught up).
  m_.standby_read_staleness_sn->Record(
      req->min_sn > last_sn_ ? req->min_sn - last_sn_ : 0);
  if (last_sn_ >= min_sn) {
    ServeStandbyRead(req, reply);
    return;
  }
  const SerialNumber gap = min_sn - last_sn_;
  if (gap > kMaxParkGap || parked_reads_.size() >= kMaxParked) {
    BounceRead(reply, "standby behind session floor");
    return;
  }
  // Small gap: park until the journal intake applies up to min_sn, with a
  // deadline so a read never waits out a genuinely lagging replica.
  ++counters_.standby_reads_parked;
  m_.standby_reads_parked->Add();
  const std::uint64_t token = ++parked_token_seq_;
  parked_reads_.emplace(min_sn, ParkedRead{req, reply, token});
  AfterLocal(kMaxParkWait, [this, token] {
    for (auto it = parked_reads_.begin(); it != parked_reads_.end(); ++it) {
      if (it->second.token != token) continue;
      ReplyFn reply = std::move(it->second.reply);
      parked_reads_.erase(it);
      BounceRead(reply, "parked read timed out");
      return;
    }
  });
}

void MdsServer::ServeStandbyRead(
    const std::shared_ptr<const ClientRequestMsg>& req, const ReplyFn& reply) {
  const SimTime cost = req->op == ClientOp::kListDir
                           ? options_.costs.listdir
                           : options_.costs.getfileinfo;
  AfterLocal(ChargeCpu(cost), [this, req, reply] {
    // Re-check: the role may have flipped while the read queued on the CPU.
    if (role_ != ServerState::kStandby) {
      BounceRead(reply, "no longer standby");
      return;
    }
    ++counters_.standby_reads_served;
    m_.standby_reads_served->Add();
    ExecuteRead(*req, reply, /*from_standby=*/true);
  });
}

void MdsServer::BounceRead(const ReplyFn& reply, const char* why) {
  ++counters_.standby_reads_bounced;
  m_.standby_reads_bounced->Add();
  auto out = std::make_shared<ClientResponseMsg>();
  out->ok = false;
  out->code = StatusCode::kUnavailable;
  out->error = why;
  out->bounced = true;
  StampReply(*out, last_sn_);
  reply(out);
}

void MdsServer::DrainParkedReads() {
  while (!parked_reads_.empty() && parked_reads_.begin()->first <= last_sn_) {
    auto node = parked_reads_.extract(parked_reads_.begin());
    ServeStandbyRead(node.mapped().req, node.mapped().reply);
  }
}

void MdsServer::FlushParkedReads(const char* why) {
  while (!parked_reads_.empty()) {
    auto node = parked_reads_.extract(parked_reads_.begin());
    BounceRead(node.mapped().reply, why);
  }
}

// --- active: client-cache directory leases -----------------------------------
//
// Grant: active-served GetFileInfo/ListDir replies carry a per-(directory,
// client) lease; repeat reads refresh the same grant (same id, extended
// deadline). Revoke: a conflicting mutation drops every overlapping grant —
// the mutator's own ids ride its ack, remote holders get a push through the
// coordination relay, and the mutation's completion is held on a barrier
// until every remote holder acks or the latest revoked grant's TTL passes.
// That barrier is the correctness core: no client observes the mutation
// complete while another client could still serve the stale entry.
// Failover: the table is volatile, which is safe because a grant is only
// issued while it would expire inside the granter's confirmed coordination
// session window, and a successor active exists only after that window
// closes. docs/PROTOCOLS.md has the full state machine.

void MdsServer::MaybeGrantLease(const ClientRequestMsg& req,
                                ClientResponseMsg& out) {
  if (!options_.client_leases.grant_leases ||
      role_ != ServerState::kActive || !out.ok ||
      req.requester == kInvalidNode) {
    return;
  }
  // Never issue a grant that could outlive this node's tenure: the
  // coordination service expires our session coord::kSessionTimeout after
  // its last confirmed contact, and a successor active (which starts
  // lease-free) can only be elected after that expiry. `last_ack_time()`
  // under-approximates the contact instant, so this check is conservative
  // even while partitioned.
  const SimTime now = sim().Now();
  if (now + kLeaseTtl > coord_client_->last_ack_time() + coord::kSessionTimeout)
    return;
  const std::string dir = req.op == ClientOp::kListDir
                              ? req.path
                              : fsns::ParentPath(req.path);
  if (dir.empty()) return;  // stat of "/" has no parent directory to lease
  auto& holders = leases_[dir];
  auto it = holders.find(req.requester);
  if (it == holders.end()) {
    if (lease_count_ >= kMaxLeaseGrants) {
      if (holders.empty()) leases_.erase(dir);
      return;  // at capacity: serve unleased rather than evict someone else
    }
    // Fresh grants always draw a fresh id — a revoked id is never reissued,
    // so a client-side tombstone on it can never collide with a live grant.
    it = holders.emplace(req.requester, LeaseGrant{++next_lease_id_, 0}).first;
    ++lease_count_;
    ++counters_.leases_granted;
    m_.leases_granted->Add();
  }
  it->second.expire_at = std::max(it->second.expire_at, now + kLeaseTtl);
  out.lease_dir = dir;
  out.lease_id = it->second.id;
  out.lease_epoch = view_.fence_token;
  out.lease_expire_at = it->second.expire_at;
}

void MdsServer::RevokeDir(
    const std::string& dir, NodeId own, std::vector<std::uint64_t>& own_ids,
    std::map<NodeId, std::vector<coord::LeaseRevocation>>& pushes,
    LeaseBarrier& barrier) {
  auto it = leases_.find(dir);
  if (it == leases_.end()) return;
  for (const auto& [node, grant] : it->second) {
    if (node == own) {
      own_ids.push_back(grant.id);
    } else {
      pushes[node].push_back({dir, grant.id});
      barrier.outstanding.emplace(node, grant.id);
      barrier.release_at = std::max(barrier.release_at, grant.expire_at);
    }
    --lease_count_;
    ++counters_.leases_revoked;
    m_.leases_revoked->Add();
  }
  leases_.erase(it);
}

void MdsServer::CollectRevocations(
    const std::string& path, NodeId own, std::vector<std::uint64_t>& own_ids,
    std::map<NodeId, std::vector<coord::LeaseRevocation>>& pushes,
    LeaseBarrier& barrier) {
  // A mutation of `path` changes its parent's listing and the parent's view
  // of the entry itself...
  const std::string parent = fsns::ParentPath(path);
  if (!parent.empty()) RevokeDir(parent, own, own_ids, pushes, barrier);
  // ...and, when `path` is a directory (delete/rename), invalidates every
  // cached listing at or below it. Scan the contiguous string-prefix region
  // of the sorted table; IsPrefixPath filters siblings like "/a/bc" that
  // share the byte prefix without being under "/a/b".
  for (auto it = leases_.lower_bound(path);
       it != leases_.end() &&
       it->first.compare(0, path.size(), path) == 0;) {
    const std::string dir = it->first;
    ++it;  // RevokeDir erases `dir`'s node; `it` already moved past it
    if (dir == path || fsns::IsPrefixPath(path, dir)) {
      RevokeDir(dir, own, own_ids, pushes, barrier);
    }
  }
}

std::vector<std::uint64_t> MdsServer::RevokeConflictingLeases(
    const ClientRequestMsg& req, TxId txid) {
  std::vector<std::uint64_t> own;
  std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes;
  LeaseBarrier barrier;
  CollectRevocations(req.path, req.requester, own, pushes, barrier);
  if (req.op == ClientOp::kRename && !req.path2.empty())
    CollectRevocations(req.path2, req.requester, own, pushes, barrier);
  PushRevocations(std::move(pushes));
  InstallLeaseBarrier(txid, std::move(barrier));
  return own;
}

void MdsServer::PushRevocations(
    std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes) {
  if (pushes.empty()) return;
  std::vector<coord::RevokeTarget> targets;
  targets.reserve(pushes.size());
  for (auto& [node, leases] : pushes)
    targets.push_back({node, std::move(leases)});
  // Fire-and-forget: a lost relay (or dead coordination frontend) costs the
  // barrier its fast path, never correctness — the TTL backstop releases it.
  coord_client_->RelayLeaseRevokes(std::move(targets), [](Status) {});
}

void MdsServer::InstallLeaseBarrier(TxId txid, LeaseBarrier barrier) {
  if (barrier.outstanding.empty()) return;
  const SimTime release_at = barrier.release_at;
  LeaseBarrier& b = lease_barriers_[txid];
  b.release_at = std::max(b.release_at, release_at);
  b.outstanding.insert(barrier.outstanding.begin(), barrier.outstanding.end());
  // TTL backstop. Each install arms a timer for its own release_at; the one
  // belonging to the final (maximum) deadline performs the release, earlier
  // ones find the deadline still ahead and stand down. Local timer: if this
  // node crashes the barrier dies with it, which is fine — the held replies
  // were lost in the crash anyway and clients retry against the successor.
  const SimTime now = sim().Now();
  AfterLocal(release_at > now ? release_at - now : 0, [this, txid] {
    auto it = lease_barriers_.find(txid);
    if (it == lease_barriers_.end()) return;       // acks already drained it
    if (sim().Now() < it->second.release_at) return;  // a later install owns it
    ReleaseLeaseBarrier(txid, /*expired=*/true);
  });
}

void MdsServer::RunOrHoldOnBarrier(TxId txid, std::function<void()> action) {
  auto it = lease_barriers_.find(txid);
  if (it == lease_barriers_.end()) {
    action();
    return;
  }
  ++counters_.lease_replies_held;
  m_.lease_replies_held->Add();
  it->second.held.push_back(std::move(action));
}

void MdsServer::ReleaseLeaseBarrier(TxId txid, bool expired) {
  auto it = lease_barriers_.find(txid);
  if (it == lease_barriers_.end()) return;
  if (expired) {
    ++counters_.lease_barrier_expiries;
    m_.lease_barrier_expiries->Add();
  }
  std::vector<std::function<void()>> held = std::move(it->second.held);
  lease_barriers_.erase(it);
  for (auto& action : held) action();
}

void MdsServer::HandleLeaseRevokeAck(const net::MessagePtr& msg) {
  const auto& ack = net::Cast<coord::LeaseRevokeAckMsg>(msg);
  if (ack.client == kInvalidNode || ack.lease_ids.empty()) return;
  std::vector<TxId> drained;
  for (auto& [txid, barrier] : lease_barriers_) {
    for (std::uint64_t id : ack.lease_ids)
      barrier.outstanding.erase({ack.client, id});
    if (barrier.outstanding.empty()) drained.push_back(txid);
  }
  for (TxId txid : drained) ReleaseLeaseBarrier(txid, /*expired=*/false);
}

void MdsServer::RevokeSlotLeases(std::uint32_t slot, TxId migration_id) {
  // A lease on directory `dir` protects cached entries for `dir`'s
  // children, whose mutations all route by the container slot
  // SlotOfDir(dir) — exactly the unit a migration moves.
  std::vector<std::uint64_t> own;
  std::map<NodeId, std::vector<coord::LeaseRevocation>> pushes;
  LeaseBarrier barrier;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (map_.SlotOfDir(it->first) != slot) {
      ++it;
      continue;
    }
    // RevokeDir erases `dir`'s node; `it` has already moved past it.
    const std::string dir = (it++)->first;
    RevokeDir(dir, kInvalidNode, own, pushes, barrier);
  }
  PushRevocations(std::move(pushes));
  InstallLeaseBarrier(migration_id, std::move(barrier));
}

void MdsServer::ResetLeaseState() {
  leases_.clear();
  lease_count_ = 0;
  lease_barriers_.clear();
}

void MdsServer::ProcessClientRequest(
    const std::shared_ptr<const ClientRequestMsg>& req, const ReplyFn& reply) {
  const OpCosts& c = options_.costs;
  SimTime cost = c.getfileinfo;
  switch (req->op) {
    case ClientOp::kCreate:
      cost = c.create;
      break;
    case ClientOp::kMkdir:
      cost = c.mkdir;
      break;
    case ClientOp::kDelete:
      cost = c.remove;
      break;
    case ClientOp::kRename:
      cost = c.rename;
      break;
    case ClientOp::kGetFileInfo:
      cost = c.getfileinfo;
      break;
    case ClientOp::kListDir:
      cost = c.listdir;
      break;
    case ClientOp::kSetReplication:
    case ClientOp::kAddBlock:
    case ClientOp::kCompleteFile:
    case ClientOp::kSetOwner:
    case ClientOp::kSetPermission:
    case ClientOp::kSetTimes:
      cost = c.add_block;
      break;
  }
  AfterLocal(ChargeCpu(cost), [this, req, reply] {
    if (role_ != ServerState::kActive) {
      ReplyStatus(reply, Status::Unavailable("not active"));
      return;
    }
    if (!IsMutation(req->op)) {
      ExecuteRead(*req, reply);
      return;
    }
    // A distributed transaction is only genuinely distributed when the
    // other side of the operation (the rename destination's entry, or the
    // directory's children) belongs to a different group; within a single
    // partition it commutes with ordinary mutations (the 1A3S configuration
    // of Figures 6/8 pays no transaction overhead).
    GroupId participant = options_.group;
    if (IsDistributedTx(req->op)) {
      participant = req->op == ClientOp::kRename ? map_.OwnerOf(req->path2)
                                                 : map_.OwnerOfDir(req->path);
    }
    const bool cross_group = participant != options_.group;
    if (cross_group && req->op == ClientOp::kRename) {
      // Cross-group rename is a real two-group transaction (intent ->
      // destination commit -> finish), not a validate-and-charge leg. It
      // paces itself via rename_drives_.
      StartCrossGroupRename(req, participant, reply);
      return;
    }
    if (cross_group) {
      if (inflight_tx_ >= kTxWindow) {
        tx_queue_.emplace_back(req, reply);
        return;
      }
      ++inflight_tx_;
      ReplyFn wrapped = [this, reply](net::MessagePtr out) {
        reply(std::move(out));
        --inflight_tx_;
        if (!tx_queue_.empty() && inflight_tx_ < kTxWindow) {
          auto [next_req, next_reply] = std::move(tx_queue_.front());
          tx_queue_.pop_front();
          ProcessClientRequest(next_req, next_reply);
        }
      };
      // Cross-group prepare leg first (the paper's distributed
      // transactions synchronize state among servers before commit).
      if (directory_ == nullptr) {
        ReplyStatus(wrapped, Status::Unavailable("no group directory"));
        return;
      }
      const NodeId peer = directory_->Active(participant);
      if (peer == kInvalidNode) {
        ReplyStatus(wrapped, Status::Unavailable("participant unknown"));
        return;
      }
      auto leg = std::make_shared<ClientRequestMsg>(*req);
      leg->tx_participant = true;
      net::RpcCall::Start(
          *this, peer, leg, kFetchRpc,
          [this, req, wrapped](Result<net::MessagePtr> r) {
            if (!r.ok()) {
              ReplyStatus(wrapped,
                          Status::Unavailable("participant unreachable"));
              return;
            }
            const auto& resp = net::Cast<ClientResponseMsg>(r.value());
            if (!resp.ok) {
              ReplyStatus(wrapped, Status::Unavailable(resp.error));
              return;
            }
            ExecuteMutation(req, wrapped);
          });
      return;
    }
    ExecuteMutation(req, reply);
  });
}

void MdsServer::ExecuteRead(const ClientRequestMsg& req, const ReplyFn& reply,
                            bool from_standby) {
  if (!ShardAdmitRead(req, reply)) return;
  ++counters_.ops_served;
  ++counters_.reads;
  m_.ops_served->Add();
  m_.reads->Add();
  auto out = std::make_shared<ClientResponseMsg>();
  out->from_standby = from_standby;
  // Wall-clock (not virtual-time) cost of the namespace resolution below;
  // feeds the mds.resolve_ns histogram the bench trajectory tracks. Real
  // nanoseconds never influence simulation state, so determinism holds.
  const auto resolve_begin = std::chrono::steady_clock::now();
  if (req.op == ClientOp::kGetFileInfo) {
    auto info = tree_.GetFileInfo(req.path);
    out->ok = info.ok();
    if (info.ok()) {
      out->info = std::move(info).value();
    } else {
      out->code = info.status().code();
      out->error = info.status().message();
    }
  } else {  // kListDir
    auto names = tree_.ListDir(req.path);
    out->ok = names.ok();
    if (names.ok()) {
      out->listing = std::move(names).value();
    } else {
      out->code = names.status().code();
      out->error = names.status().message();
    }
  }
  m_.resolve_ns->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - resolve_begin)
                            .count());
  MaybeGrantLease(req, *out);
  StampReply(*out, last_sn_);
  reply(out);
}

void MdsServer::ExecuteMutation(
    const std::shared_ptr<const ClientRequestMsg>& req, const ReplyFn& reply) {
  // Shard admission runs here — synchronously with the tree mutation and
  // journal append — not at request arrival: a cutover fence raised while
  // the request sat in the CPU queue must still bounce it.
  if (!ShardAdmitMutation(*req, reply)) return;
  const SimTime now = sim().Now();
  Result<journal::LogRecord> rec = Status::Internal("unhandled op");
  switch (req->op) {
    case ClientOp::kCreate:
      rec = tree_.Create(req->path, req->replication, now, req->client);
      break;
    case ClientOp::kMkdir:
      rec = tree_.Mkdir(req->path, now, req->client);
      break;
    case ClientOp::kDelete:
      rec = tree_.Delete(req->path, now, req->client);
      break;
    case ClientOp::kRename:
      rec = tree_.Rename(req->path, req->path2, now, req->client);
      break;
    case ClientOp::kSetReplication:
      rec = tree_.SetReplication(req->path, req->replication, now, req->client);
      break;
    case ClientOp::kAddBlock:
      rec = tree_.AddBlock(req->path, now, req->client);
      break;
    case ClientOp::kCompleteFile:
      rec = tree_.CompleteFile(req->path, now, req->client);
      break;
    case ClientOp::kSetOwner:
      rec = tree_.SetOwner(req->path, req->owner, now, req->client);
      break;
    case ClientOp::kSetPermission:
      rec = tree_.SetPermission(req->path, req->permission, now, req->client);
      break;
    case ClientOp::kSetTimes:
      rec = tree_.SetTimes(req->path, now, req->client);
      break;
    default:
      break;
  }
  ++counters_.ops_served;
  ++counters_.mutations;
  m_.ops_served->Add();
  m_.mutations->Add();
  if (!rec.ok()) {
    // Idempotent resend: the op already committed in a previous life of
    // this request; acknowledge success without re-journaling.
    if (rec.status().code() == StatusCode::kAborted &&
        rec.status().message() == "duplicate") {
      ReplyStatus(reply, Status::Ok());
      return;
    }
    ReplyStatus(reply, rec.status());
    return;
  }
  CaptureMigrationDelta(rec.value());
  const TxId txid = writer_->Append(std::move(rec).value());
  tree_.set_last_txid(txid);  // keep the active's replay cursor in step
  ReplyFn final_reply = reply;
  if (!leases_.empty()) {
    // Revoke every directory lease this mutation conflicts with. The
    // requester's own revocations ride its ack (it must drop/patch its
    // cache before acting on the reply); remote holders are pushed through
    // the coordination relay and gate the ack via the txid barrier.
    std::vector<std::uint64_t> own = RevokeConflictingLeases(*req, txid);
    if (!own.empty()) {
      final_reply = [reply, own = std::move(own)](net::MessagePtr out) {
        if (const auto* resp =
                dynamic_cast<const ClientResponseMsg*>(out.get())) {
          auto patched = std::make_shared<ClientResponseMsg>(*resp);
          patched->revoke_lease_ids = own;
          reply(std::move(patched));
          return;
        }
        reply(std::move(out));
      };
    }
  }
  pending_replies_[txid].push_back(std::move(final_reply));
  SealIfSlotFree();
}

// --- journal sync: active side -------------------------------------------------

bool MdsServer::SealIfSlotFree() {
  if (!writer_ || writer_->pending_records() == 0 ||
      pending_sync_.size() >= kCommitWindow) {
    return false;
  }
  writer_->Flush();
  return true;
}

void MdsServer::OnBatchSealed(journal::Batch batch, std::vector<char> bytes) {
  // The writer hands over the batch by value exactly once; everything
  // downstream (recent window, pending sync, prepare messages) shares one
  // immutable copy instead of duplicating the records per consumer.
  auto owned = std::make_shared<const journal::Batch>(std::move(batch));
  last_sn_ = owned->sn;
  recent_batches_.push_back(owned);
  if (recent_batches_.size() > kRecentBatchCap) recent_batches_.pop_front();

  m_.last_sn->Set(static_cast<std::int64_t>(last_sn_));
  m_.batch_records->Record(static_cast<std::int64_t>(owned->records.size()));

  const SerialNumber sn = owned->sn;
  PendingSync& ps = pending_sync_[sn];
  ps.batch = owned;
  ps.awaiting = sync_targets_;
  ps.ssp_done = !options_.ssp_in_commit_path;  // ablation: SSP off-path
  ps.begin = sim().Now();
  ps.span = obs_->tracer().Begin(
      "mds", "sync_batch", id(), options_.group,
      {{"sn", static_cast<std::uint64_t>(sn)},
       {"records", static_cast<std::uint64_t>(owned->records.size())},
       {"targets", static_cast<std::uint64_t>(ps.awaiting.size())}});

  // Replication fan-out costs CPU on the active: the batch was serialized
  // and checksummed once at seal time and is sent once per target (plus the
  // SSP copy), so sends are staggered through the CPU cursor. This is the
  // per-standby overhead Figure 5 quantifies (~4% per added standby on
  // transactional ops).
  const auto batch_bytes = static_cast<double>(bytes.size());
  const auto per_target =
      options_.costs.sync_cpu_base +
      static_cast<SimTime>(batch_bytes / options_.costs.sync_bytes_per_sec *
                           static_cast<double>(kSecond));

  auto msg = std::make_shared<JournalPrepareMsg>();
  msg->group = options_.group;
  msg->fence = fence_;
  msg->batch = std::move(owned);
  for (NodeId peer : ps.awaiting) {
    AfterLocal(ChargeCpu(per_target), [this, peer, sn, msg] {
      net::RpcCall::Start(
          *this, peer, msg, kSyncRpc,
          [this, peer, sn](Result<net::MessagePtr> r) {
            auto it = pending_sync_.find(sn);
            if (it == pending_sync_.end()) return;
            if (!r.ok()) {
              DemoteUnresponsiveStandby(peer);
            } else {
              const auto& ack = net::Cast<JournalAckMsg>(r.value());
              if (ack.stale_fence) {
                StepDownFromActive("standby reported stale fence");
                return;
              }
              ++it->second.acks;
            }
            it->second.awaiting.erase(peer);
            MaybeCompleteSync(sn);
          });
    });
  }

  // The SSP copy (journal segment shared file), fenced with our token. The
  // bytes are the seal-time serialization — no second pass over the records.
  storage::SspRecord record;
  record.sn = sn;
  record.fence = fence_;
  record.bytes = std::move(bytes);
  AfterLocal(ChargeCpu(per_target),
             [this, sn, record = std::move(record)]() mutable {
               ssp_->Append(JournalFile(), std::move(record),
                            [this, sn](Status s) {
                              auto it = pending_sync_.find(sn);
                              if (it == pending_sync_.end()) return;
                              if (!s.ok()) {
                                MAMS_WARN("mds", "%s: ssp append failed: %s",
                                          name().c_str(),
                                          s.ToString().c_str());
                              }
                              it->second.ssp_ok = s.ok();
                              it->second.ssp_done = true;
                              MaybeCompleteSync(sn);
                            });
             });
  MaybeCompleteSync(sn);
}

void MdsServer::MaybeCompleteSync(SerialNumber sn) {
  auto it = pending_sync_.find(sn);
  if (it == pending_sync_.end()) return;
  PendingSync& ps = it->second;
  if (ps.completed || !ps.awaiting.empty() || !ps.ssp_done) return;
  ps.completed = true;
  m_.sync_batch_ns->Record(sim().Now() - ps.begin);
  obs_->tracer().End(ps.span,
                     {{"acks", static_cast<std::uint64_t>(ps.acks)},
                      {"ssp_ok", ps.ssp_ok ? "true" : "false"}});
  FinalizeCompletedSyncs();
}

void MdsServer::FinalizeCompletedSyncs() {
  // A reply below can journal a shard record whose batch completes at once.
  if (finalizing_syncs_) return;
  finalizing_syncs_ = true;
  // Finalization is strictly sn-ordered: with several rounds in flight,
  // batch N+1's acks can land before batch N's, but a standby ack only
  // proves the peer *received* the batch (it may still be buffering a gap),
  // so acknowledged client work is a journal prefix only if replies and
  // committed_sn advance from the front. This keeps the loss on failover
  // prefix-closed exactly as in the stop-and-wait protocol.
  while (!pending_sync_.empty() && pending_sync_.begin()->second.completed) {
    const SerialNumber sn = pending_sync_.begin()->first;
    PendingSync ps = std::move(pending_sync_.begin()->second);
    pending_sync_.erase(pending_sync_.begin());
    ++counters_.batches_synced;
    m_.batches_synced->Add();
    if (ps.acks > 0 || ps.ssp_ok) {
      committed_sn_ = std::max(committed_sn_, sn);
    }
    if (!ps.ssp_ok) {
      // The pool missed it. The SSP is what a future failover drains, and
      // every later batch builds on this one — even one no standby acked
      // either, which standbys backfill once they are reachable again. A
      // hole here would end a junior's drain early and lose the committed
      // batches behind it, so keep re-appending until the copy is durable
      // (or we are deposed and the new active reconciles).
      AfterLocal(kSspAppendRetry, [this, sn] { RetrySspAppend(sn); });
    }
    if (ps.acks == 0 && !ps.ssp_ok) {
      // The batch completed by timeouts alone: it exists only in this
      // process. Should we be deposed before it replicates, our namespace
      // holds uncommitted state and must be rebuilt (see
      // StepDownFromActive).
      dirty_ = true;
    }
    for (const auto& rec : ps.batch->records) {
      auto rit = pending_replies_.find(rec.txid);
      if (rit == pending_replies_.end()) continue;
      for (auto& reply : rit->second) {
        // A mutation that revoked remote leases must not complete until
        // every holder acked (or the last revoked grant expired): its ack
        // is held on the txid barrier instead of leaving now.
        RunOrHoldOnBarrier(rec.txid, [this, reply = std::move(reply)] {
          ReplyStatus(reply, Status::Ok());
        });
      }
      pending_replies_.erase(rit);
    }
  }
  finalizing_syncs_ = false;
  // Group commit: the records that arrived while the window was full take
  // the slot this finalization freed.
  if (SealIfSlotFree()) ++counters_.pipeline_deferred;
}

void MdsServer::RetrySspAppend(SerialNumber sn) {
  if (role_ != ServerState::kActive || !alive()) return;
  const journal::Batch* batch = nullptr;
  for (const auto& b : recent_batches_) {
    if (b->sn == sn) {
      batch = b.get();
      break;
    }
  }
  if (batch == nullptr) return;  // evicted; peers cover the failover drain
  storage::SspRecord record;
  record.sn = sn;
  record.fence = fence_;
  record.bytes = batch->Serialize();
  ssp_->Append(JournalFile(), std::move(record), [this, sn](Status s) {
    if (s.ok() || role_ != ServerState::kActive || !alive()) return;
    AfterLocal(kSspAppendRetry, [this, sn] { RetrySspAppend(sn); });
  });
}

void MdsServer::DemoteUnresponsiveStandby(NodeId peer) {
  if (!sync_targets_.contains(peer)) return;
  MAMS_INFO("mds", "%s: demoting unresponsive standby node %u",
            name().c_str(), peer);
  // Only stop replicating to the peer once the demotion has actually
  // committed in the global view. If WE are the partitioned one, the
  // SetState fails and the peer stays a target — dropping it locally
  // while the view still says "standby" would silently diverge.
  coord_client_->SetState(options_.group, peer, ServerState::kJunior, fence_,
                          [this, peer](Result<coord::GroupView> r) {
                            if (r.ok()) sync_targets_.erase(peer);
                          });
}

// --- journal sync: standby/junior side ------------------------------------------

void MdsServer::HandleJournalPrepare(const net::Envelope& env,
                                     const net::MessagePtr& msg,
                                     const ReplyFn& reply) {
  const auto& req = net::Cast<JournalPrepareMsg>(msg);
  auto ack = std::make_shared<JournalAckMsg>();

  // IO fencing: a sender with an older fence token than the view's is a
  // deposed active; refuse it so it steps down. The disable_fencing test
  // hook removes this whole layer (including the active-side collision
  // arbitration below) so the checker's mutation self-test can demonstrate
  // the split-brain/lost-ack anomalies fencing exists to prevent.
  if (!options_.test_hooks.disable_fencing &&
      req.fence < view_.fence_token) {
    ++counters_.fenced_rejections;
    m_.fenced_rejections->Add();
    obs_->tracer().Instant(
        "mds", "fenced_rejection", id(), options_.group,
        {{"stale_fence", static_cast<std::uint64_t>(req.fence)},
         {"view_fence", static_cast<std::uint64_t>(view_.fence_token)}});
    ack->stale_fence = true;
    ack->max_sn = last_sn_;
    reply(ack);
    return;
  }
  if (role_ == ServerState::kActive &&
      !options_.test_hooks.disable_fencing) {
    // Two actives cannot coexist; the one with the newer fence wins.
    if (req.fence > fence_) {
      StepDownFromActive("saw a newer fence in replication traffic");
    } else {
      ack->stale_fence = true;
      ack->max_sn = last_sn_;
      reply(ack);
      return;
    }
  }

  if (req.batch == nullptr) {  // malformed prepare; nothing to apply
    ack->applied = false;
    ack->max_sn = last_sn_;
    reply(ack);
    return;
  }
  const journal::Batch& batch = *req.batch;
  if (batch.sn <= last_sn_) {
    // "Only if sn from the active is larger than the current maximum serial
    // number, the standby applies journals" — duplicate, already applied.
    if (options_.test_hooks.disable_sn_dedup) {
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
      ++counters_.duplicate_batches;
      m_.duplicate_batches->Add();
      ack->applied = true;
      ack->max_sn = last_sn_;
      reply(ack);
      return;
    }
    ++counters_.duplicate_batches;
    m_.duplicate_batches->Add();
    ack->applied = true;
    ack->max_sn = last_sn_;
    reply(ack);
    return;
  }
  pending_batches_.emplace(batch.sn, req.batch);
  ApplyReadyBatches();
  if (!pending_batches_.empty()) RequestBackfill(env.from);
  ack->applied = pending_batches_.empty();
  ack->max_sn = last_sn_;
  reply(ack);
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

void MdsServer::ApplyBatch(const std::shared_ptr<const journal::Batch>& batch) {
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
  last_sn_ = batch->sn;
  ++counters_.batches_applied;
  m_.batches_applied->Add();
  m_.last_sn->Set(static_cast<std::int64_t>(last_sn_));
  recent_batches_.push_back(batch);
  if (recent_batches_.size() > kRecentBatchCap) recent_batches_.pop_front();
  // Reads parked on this sn (or earlier) can be answered now.
  DrainParkedReads();
}

void MdsServer::RequestBackfill(NodeId from) {
  if (backfill_inflight_) return;
  backfill_inflight_ = true;
  auto req = std::make_shared<RenewJournalFetchMsg>();
  req->group = options_.group;
  req->after_sn = last_sn_;
  net::RpcCall::Start(*this, from, req, kFetchRpc,
                      [this](Result<net::MessagePtr> r) {
                        backfill_inflight_ = false;
                        if (!r.ok()) return;
                        ApplyFetchedBatches(
                            net::Cast<RenewJournalReplyMsg>(r.value()));
                      });
}

void MdsServer::ApplyFetchedBatches(const RenewJournalReplyMsg& resp) {
  for (const auto& b : resp.batches) {
    if (b.sn > last_sn_) {
      pending_batches_.emplace(b.sn, std::make_shared<const journal::Batch>(b));
    }
  }
  ApplyReadyBatches();
}

std::uint64_t MdsServer::ApplyPoolRecords(
    const std::vector<storage::SspRecord>& records) {
  std::uint64_t applied_bytes = 0;
  for (const auto& rec : records) {
    auto batch = journal::Batch::Deserialize(rec.bytes);
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

// --- renewing protocol: active side ---------------------------------------------

void MdsServer::RenewScan() {
  if (role_ != ServerState::kActive) return;
  // Anti-entropy: reconcile the replication target set with the view (a
  // transient partition may have left it stale) and nudge every target
  // with the most recent batch — receivers that silently missed traffic
  // detect the sn gap and backfill, even on an otherwise idle system.
  for (const auto& [node, state] : view_.states) {
    if (node != id() && state == ServerState::kStandby) {
      sync_targets_.insert(node);
    }
  }
  if (!recent_batches_.empty()) {
    auto nudge = std::make_shared<JournalPrepareMsg>();
    nudge->group = options_.group;
    nudge->fence = fence_;
    nudge->batch = recent_batches_.back();
    for (NodeId peer : sync_targets_) Send(peer, nudge);
  }
  if (renew_target_ != kInvalidNode) return;
  // "During the runtime, the active scans the global view periodically and
  // tries to launch the renewing process when there are juniors."
  for (const auto& [node, state] : view_.states) {
    if (node == id() || state != ServerState::kJunior) continue;
    renew_target_ = node;
    auto cmd = std::make_shared<RenewCommandMsg>();
    cmd->group = options_.group;
    cmd->fence = fence_;
    cmd->active_sn = last_sn_;
    if (latest_image_.has_value()) {
      cmd->image_file = latest_image_->first;
      cmd->image_sn = latest_image_->second;
    }
    Send(node, cmd);
    // If the junior makes no progress at all, give up and rescan later.
    AfterLocal(30 * kSecond, [this, node] {
      if (renew_target_ == node && view_.StateOf(node) != ServerState::kStandby) {
        renew_target_ = kInvalidNode;
      }
    });
    return;
  }
}

void MdsServer::HandleRenewProgress(const net::Envelope& env,
                                    const net::MessagePtr& msg) {
  if (role_ != ServerState::kActive) return;
  const auto& prog = net::Cast<RenewProgressMsg>(msg);
  const NodeId junior = env.from;
  if (prog.failed) {
    if (renew_target_ == junior) renew_target_ = kInvalidNode;
    return;
  }
  FinishRenewTarget(junior, prog.current_sn);
}

void MdsServer::FinishRenewTarget(NodeId junior, SerialNumber reported_sn) {
  const SerialNumber gap =
      last_sn_ >= reported_sn ? last_sn_ - reported_sn : 0;
  if (gap > kFinalSyncGap) return;  // keep catching up

  // Final synchronization: include the junior in live replication and
  // resend whatever recent batches it may still miss (sn-deduped).
  if (!sync_targets_.contains(junior)) {
    sync_targets_.insert(junior);
    for (const auto& b : recent_batches_) {
      if (b->sn > reported_sn) {
        auto msg = std::make_shared<JournalPrepareMsg>();
        msg->group = options_.group;
        msg->fence = fence_;
        msg->batch = b;
        Send(junior, msg);
      }
    }
  }
  // Upgrade once the junior is (a) inside the live replication stream and
  // (b) within the final-sync gap. Its contiguous apply cursor plus the
  // backfill path close any residual holes.
  if (sync_targets_.contains(junior) &&
      view_.StateOf(junior) == ServerState::kJunior) {
    coord_client_->SetState(
        options_.group, junior, ServerState::kStandby, fence_,
        [this, junior](Result<coord::GroupView> r) {
          if (!r.ok()) return;
          ++counters_.renews_completed;
          m_.renews_completed->Add();
          obs_->tracer().Instant(
              "renew", "junior_promoted", junior, options_.group);
          if (renew_target_ == junior) renew_target_ = kInvalidNode;
        });
  }
}

// --- renewing protocol: junior side ----------------------------------------------

void MdsServer::HandleRenewCommand(const net::MessagePtr& msg) {
  const auto& cmd = net::Cast<RenewCommandMsg>(msg);
  if (role_ == ServerState::kStandby && cmd.fence >= view_.fence_token) {
    // The active only renews nodes the view classifies as juniors. If we
    // still think we are a standby, our demotion watch event was lost in
    // a partition (watch pushes are fire-and-forget) — re-fetch the view
    // and reconcile instead of ignoring the command forever.
    coord_client_->GetView(options_.group, [this](Result<coord::GroupView> r) {
      if (r.ok()) OnWatchEvent(r.value());
    });
    return;
  }
  if (role_ != ServerState::kJunior) return;
  renew_.target_sn = cmd.active_sn;
  if (renew_.running) return;  // resume in place; new target noted
  renew_.running = true;
  renew_span_ = obs_->tracer().Begin(
      "renew", "renewing", id(), options_.group,
      {{"from_sn", static_cast<std::uint64_t>(last_sn_)},
       {"target_sn", static_cast<std::uint64_t>(cmd.active_sn)}});

  const bool use_image =
      !cmd.image_file.empty() && cmd.image_sn > last_sn_ &&
      (last_sn_ == 0 ||
       cmd.active_sn - last_sn_ > options_.image_gap_threshold);
  if (use_image && renew_.image_file != cmd.image_file) {
    renew_.mode = RenewMode::kImageFirst;
    renew_.image_file = cmd.image_file;
    renew_.image_sn = cmd.image_sn;
    renew_.image_next_index = 0;
    renew_.image_bytes.clear();
  } else if (!use_image) {
    renew_.mode = RenewMode::kJournalOnly;
  }

  if (!renew_progress_timer_) {
    renew_progress_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), kRenewProgressInterval,
        [this] { SendRenewProgress(); });
    renew_progress_timer_->Start();
  }

  if (renew_.mode == RenewMode::kImageFirst) {
    StartRenewPhase("image_fetch");
    RenewFetchImageChunk();
  } else {
    StartRenewPhase("journal_replay");
    RenewFetchJournal();
  }
}

void MdsServer::SendRenewProgress(bool failed) {
  const NodeId active = view_.FindActive();
  if (active == kInvalidNode || active == id()) return;
  auto msg = std::make_shared<RenewProgressMsg>();
  msg->group = options_.group;
  msg->current_sn = last_sn_;
  msg->failed = failed;
  Send(active, msg);
}

void MdsServer::RenewFetchImageChunk() {
  if (role_ != ServerState::kJunior || !renew_.running) return;
  // Resumable: image_next_index is the checkpoint the paper describes —
  // "the junior records the checkpoint that has been committed [and] can
  // continue to recover from other replicas in the last position".
  ssp_->ReadIndex(
      renew_.image_file, renew_.image_next_index,
      [this](Result<std::shared_ptr<const storage::SspReadReplyMsg>> r) {
        if (role_ != ServerState::kJunior || !renew_.running) return;
        if (!r.ok() || !r.value()->found) {
          // Pool unreachable or image gone: fall back to journal replay.
          renew_.mode = RenewMode::kJournalOnly;
          StartRenewPhase("journal_replay");
          RenewFetchJournal();
          return;
        }
        const auto& reply = *r.value();
        for (const auto& rec : reply.records) {
          renew_.image_bytes.insert(renew_.image_bytes.end(),
                                    rec.bytes.begin(), rec.bytes.end());
        }
        renew_.image_next_index = reply.next_index;
        if (!reply.eof) {
          RenewFetchImageChunk();
          return;
        }
        // Whole image streamed: reconstruct the tree in memory. CPU cost
        // scales with the logical image size.
        const SimTime load_cost = ChargeCpu(static_cast<SimTime>(
            static_cast<double>(renew_.image_bytes.size()) *
            options_.image_inflation / 300.0e6 * kSecond));
        AfterLocal(load_cost, [this] {
          if (role_ != ServerState::kJunior || !renew_.running) return;
          Status s = tree_.LoadImage(renew_.image_bytes);
          renew_.image_bytes.clear();
          renew_.image_bytes.shrink_to_fit();
          if (!s.ok()) {
            MAMS_ERROR("mds", "%s: image load failed: %s", name().c_str(),
                       s.ToString().c_str());
            tree_.Reset();
            last_sn_ = 0;
            renew_.mode = RenewMode::kJournalOnly;
            StartRenewPhase("journal_replay");
            RenewFetchJournal();
            return;
          }
          last_sn_ = renew_.image_sn;
          StartRenewPhase("journal_replay");
          RenewFetchJournal();
        });
      });
}

void MdsServer::RenewFetchJournal() {
  if (role_ != ServerState::kJunior || !renew_.running) return;
  ssp_->ReadAfter(
      JournalFile(), last_sn_,
      [this](Result<std::shared_ptr<const storage::SspReadReplyMsg>> r) {
        if (role_ != ServerState::kJunior || !renew_.running) return;
        if (!r.ok()) {
          SendRenewProgress(/*failed=*/true);
          renew_.running = false;
          EndRenewSpan("ssp_failed");
          return;
        }
        const auto& reply = *r.value();
        const std::uint64_t applied_bytes = ApplyPoolRecords(reply.records);
        // Replay CPU cost: serial apply at 200 MB/s of journal bytes.
        const SimTime cost =
            ChargeCpu(static_cast<SimTime>(static_cast<double>(applied_bytes) /
                                           200.0e6 * kSecond));
        AfterLocal(cost, [this, eof = reply.eof] {
          if (role_ != ServerState::kJunior || !renew_.running) return;
          if (!eof) {
            RenewFetchJournal();
            return;
          }
          // SSP drained. Under live load the active has moved on; enter
          // the final synchronization stage: fetch the tail directly from
          // the active until the gap is small (Section III.D).
          StartRenewPhase("final_sync");
          RenewFinalSync();
        });
      });
}

void MdsServer::RenewFinalSync() {
  if (role_ != ServerState::kJunior || !renew_.running) return;
  const NodeId active = view_.FindActive();
  if (active == kInvalidNode || active == id()) {
    // No active right now (mid-failover); progress reports resume the
    // renewal once a new active scans the view.
    renew_.running = false;
    EndRenewSpan("no_active");
    return;
  }
  auto req = std::make_shared<RenewJournalFetchMsg>();
  req->group = options_.group;
  req->after_sn = last_sn_;
  // Retried under kRenewFetchRpc until the active answers or the renewal
  // is abandoned (role change, abort); a crash forgets the call outright.
  net::RpcHooks hooks;
  hooks.cancelled = [this] {
    return role_ != ServerState::kJunior || !renew_.running;
  };
  net::RpcCall::Start(
      *this, active, req, kRenewFetchRpc,
      [this](Result<net::MessagePtr> r) {
        if (role_ != ServerState::kJunior || !renew_.running) return;
        if (!r.ok()) return;  // cancelled mid-retry
        const auto& resp = net::Cast<RenewJournalReplyMsg>(r.value());
        ApplyFetchedBatches(resp);
        renew_.target_sn = resp.active_sn;
        if (resp.active_sn > last_sn_ + kFinalSyncGap) {
          RenewFinalSync();  // still chasing the live stream
          return;
        }
        // Close enough: report; the active folds us into live replication
        // and flips our state to standby.
        renew_.running = false;
        EndRenewSpan("caught_up");
        SendRenewProgress();
      },
      std::move(hooks));
}

// --- checkpoints ------------------------------------------------------------

void MdsServer::WriteCheckpoint() {
  // Only the active checkpoints; benches may also force one on a preloaded
  // server before it boots (alive() is false then).
  if (alive() && role_ != ServerState::kActive) return;
  const SerialNumber sn = last_sn_;
  if (latest_image_.has_value() && latest_image_->second == sn) return;
  auto write = std::make_shared<CheckpointWrite>();
  write->file = ImageFile(sn);
  write->sn = sn;
  write->bytes = tree_.SaveImage();
  // A previous checkpoint abandoned mid-write leaves its span open; close
  // it before starting the next attempt.
  obs_->tracer().End(checkpoint_span_, {{"ok", "abandoned"}});
  checkpoint_span_ = obs_->tracer().Begin(
      "mds", "checkpoint", id(), options_.group,
      {{"sn", static_cast<std::uint64_t>(sn)},
       {"bytes", static_cast<std::uint64_t>(write->bytes.size())}});
  write->logical = static_cast<std::uint64_t>(
      static_cast<double>(write->bytes.size()) * options_.image_inflation);
  const std::uint64_t chunk_logical = options_.image_chunk_bytes;
  write->chunks = std::max<std::size_t>(
      1, (write->logical + chunk_logical - 1) / chunk_logical);
  WriteCheckpointChunk(std::move(write), 0);
}

void MdsServer::WriteCheckpointChunk(
    std::shared_ptr<const CheckpointWrite> write, std::size_t i) {
  // Chunks go out sequentially; each record carries an even slice of the
  // real bytes and an even share of the logical size. Only the pending
  // append's callback holds `write`, so the image bytes are freed once the
  // last chunk lands or the checkpoint is abandoned.
  if (i >= write->chunks) {
    latest_image_ = {write->file, write->sn};
    obs_->tracer().End(checkpoint_span_, {{"ok", "true"}});
    return;
  }
  storage::SspRecord rec;
  rec.sn = i + 1;  // chunk ordinal
  rec.fence = fence_;
  const std::size_t lo = write->bytes.size() * i / write->chunks;
  const std::size_t hi = write->bytes.size() * (i + 1) / write->chunks;
  rec.bytes.assign(write->bytes.begin() + static_cast<long>(lo),
                   write->bytes.begin() + static_cast<long>(hi));
  rec.logical_bytes = write->logical / write->chunks;
  ssp_->Append(write->file, std::move(rec), [this, write, i](Status s) {
    if (!s.ok()) return;  // abandoned checkpoint; next timer tick retries
    WriteCheckpointChunk(write, i + 1);
  });
}

// --- misc helpers ------------------------------------------------------------

std::string MdsServer::ImageFile(SerialNumber sn) const {
  // The fence suffix keeps two actives' checkpoints at the same sn from
  // interleaving chunks in one shared file.
  return "g" + std::to_string(options_.group) + "/image-" +
         std::to_string(sn) + "-f" + std::to_string(fence_);
}

void MdsServer::RegisterHandlers() {
  OnRequest(net::kClientRequest,
            [this](const net::Envelope& env, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              HandleClientRequest(env, msg, reply);
            });
  OnRequest(net::kJournalPrepare,
            [this](const net::Envelope& env, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              HandleJournalPrepare(env, msg, reply);
            });
  OnRequest(net::kGroupRegister,
            [this](const net::Envelope&, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              const auto& req = net::Cast<GroupRegisterMsg>(msg);
              if (role_ == ServerState::kActive && req.fence > fence_) {
                StepDownFromActive("registration round from newer active");
              }
              // Final round only: a registrant still AHEAD of the new
              // active after its catch-up fetch holds batches that were
              // never committed (a partial replication nobody else has).
              // Those phantom applications must be discarded, or the new
              // active's re-execution of the same client retries would
              // silently diverge from this replica. The probe round
              // (`discard_ahead` false) leaves the tail intact so the new
              // active can adopt committed batches from it first.
              if (req.discard_ahead && req.active_sn < last_sn_ &&
                  role_ != ServerState::kActive) {
                MAMS_INFO("mds",
                          "%s: ahead of new active (sn %llu > %llu); "
                          "discarding uncommitted state",
                          name().c_str(), (unsigned long long)last_sn_,
                          (unsigned long long)req.active_sn);
                tree_.Reset();
                blocks_.Clear();
                last_sn_ = 0;
                recent_batches_.clear();
                pending_batches_.clear();
                renew_ = RenewCursor{};
                if (role_ == ServerState::kStandby) {
                  BecomeRole(ServerState::kJunior);
                }
              }
              // A deposed ex-active rejoins the view before acking so the
              // new active can immediately confirm it as standby/junior.
              auto ack_now = [this, reply] {
                auto ack = std::make_shared<GroupRegisterAckMsg>();
                ack->max_sn = last_sn_;
                ack->previous_state = role_;
                reply(ack);
              };
              if (!coord_client_->registered()) {
                JoinGroup(ServerState::kJunior,
                          [ack_now](Status) { ack_now(); });
              } else {
                ack_now();
              }
            });
  OnRequest(net::kRenewCommand,
            [this](const net::Envelope&, const net::MessagePtr& msg,
                   const ReplyFn&) { HandleRenewCommand(msg); });
  OnRequest(net::kRenewProgress,
            [this](const net::Envelope& env, const net::MessagePtr& msg,
                   const ReplyFn&) { HandleRenewProgress(env, msg); });
  OnRequest(net::kRenewJournalFetch,
            [this](const net::Envelope&, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              const auto& req = net::Cast<RenewJournalFetchMsg>(msg);
              auto out = std::make_shared<RenewJournalReplyMsg>();
              out->active_sn = last_sn_;
              std::uint32_t n = 0;
              for (const auto& b : recent_batches_) {
                if (b->sn <= req.after_sn) continue;
                if (n++ >= req.max_batches) break;
                out->payload_bytes += b->EncodedSize();
                out->batches.push_back(*b);
              }
              reply(out);
            });
  OnRequest(net::kShardTransfer,
            [this](const net::Envelope& env, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              HandleShardTransfer(env, msg, reply);
            });
  OnRequest(net::kShardControl,
            [this](const net::Envelope& env, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              HandleShardControl(env, msg, reply);
            });
  OnRequest(net::kLeaseRevokeAck,
            [this](const net::Envelope&, const net::MessagePtr& msg,
                   const ReplyFn&) { HandleLeaseRevokeAck(msg); });
  OnRequest(net::kBlockReport,
            [this](const net::Envelope&, const net::MessagePtr& msg,
                   const ReplyFn& reply) {
              const auto& report = net::Cast<BlockReportMsg>(msg);
              const SimTime cost =
                  options_.costs.block_report_per_1k *
                  static_cast<SimTime>(1 + report.EffectiveCount() / 1000);
              AfterLocal(ChargeCpu(cost), [this, msg, reply] {
                const auto& rep = net::Cast<BlockReportMsg>(msg);
                blocks_.IngestReport(rep.data_server, rep.blocks);
                reply(std::make_shared<BlockReportAckMsg>());
              });
            });
}

}  // namespace mams::core
