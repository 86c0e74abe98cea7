#include "core/upgrade.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/mds_server.hpp"

namespace mams::core {

namespace {

/// Algorithm-1 election bids. Unlimited attempts paced like the paper's
/// periodic lock polling; every bid redraws its random number and
/// refreshes max_sn. The attempt timeout must ride out the coordination
/// service's election window plus the RPC budget.
constexpr net::RpcPolicy kElectionBid{
    .attempt_timeout = 4 * kSecond,
    .max_attempts = 0,
    .backoff_base = 200 * kMillisecond,
    .backoff_multiplier = 1.0,
    .jitter = 0.0,
};

/// Step 5: one registration attempt per peer, and the bound on a round for
/// a member that stays silent — a live member answers within a round trip,
/// and the round settles on its answer. Peers that miss the bound are
/// picked up by the renewing scan.
constexpr SimTime kRegisterWait = 300 * kMillisecond;
constexpr net::RpcPolicy kRegisterRpc{
    .attempt_timeout = 250 * kMillisecond,
    .max_attempts = 1,
};

}  // namespace

Upgrade::Upgrade(MdsServer& server) : s_(server) {
  trace_.group = s_.group();
  trace_.elected = s_.id();
  trace_.failure_detected = trace_.election_started = s_.sim().Now();
  election_span_ = s_.sim().obs().tracer().Begin("failover", "election",
                                                 s_.id(), s_.group());
}

void Upgrade::StartStep(std::string step_name) {
  auto& tracer = s_.sim().obs().tracer();
  tracer.End(step_span_);
  step_span_ = tracer.Begin("failover", std::move(step_name), s_.id(),
                            s_.group());
}

void Upgrade::EndSpans(bool ok) {
  auto& tracer = s_.sim().obs().tracer();
  std::vector<obs::TraceArg> outcome{{"ok", ok ? "true" : "false"}};
  tracer.End(step_span_, outcome);
  tracer.End(buffer_span_, outcome);
  tracer.End(switch_span_, outcome);
  tracer.End(election_span_, std::move(outcome));
}

void Upgrade::Buffer(RequestPtr req, ReplyFn reply) {
  s_.m().buffered_during_upgrade->Add();
  buffered_.emplace_back(std::move(req), std::move(reply));
}

// --- election (Algorithm 1) ---------------------------------------------------

void Upgrade::BidForLock() {
  // Re-bids with a fresh draw whenever the RPC fails or a window closes
  // while the lock is still free ("each standby tries to obtain a
  // distributed lock periodically"), until the lock is decided — granted to
  // us or held by a peer — or this upgrade is gone (cancel hook).
  s_.coord().BidLoop(
      s_.group(),
      [&s = s_] {
        // Juniors lose to any standby; sn breaks junior-vs-junior ties.
        // Re-evaluated per bid so a mid-election demotion takes effect.
        return s.role() == ServerState::kStandby
                   ? static_cast<std::uint64_t>(s.rng().Range(1, 1 << 30))
                   : 0;
      },
      [&s = s_] { return s.last_sn(); }, kElectionBid,
      [life = weak_from_this()] { return life.expired(); },
      [this, life = weak_from_this()](
          Result<coord::CoordClient::LockResult> r) {
        if (life.expired() || !r.ok()) return;  // cancelled mid-flight
        auto& tracer = s_.sim().obs().tracer();
        if (r.value().granted) {
          s_.set_fence(r.value().fence);
          trace_.lock_granted = s_.sim().Now();
          s_.m().elections_won->Add();
          tracer.End(election_span_,
                     {{"won", "true"},
                      {"fence", static_cast<std::uint64_t>(s_.fence())}});
          switch_span_ =
              tracer.Begin("failover", "switch", s_.id(), s_.group());
          buffer_span_ = tracer.Begin("failover", "step3_buffer_mutations",
                                      s_.id(), s_.group());
          switching_ = true;
          StartStep("step1_check_state");
          Step1CheckState();
          return;
        }
        // Someone else won; they will upgrade. Stop competing (the
        // coordination events notify us of the outcome).
        s_.m().elections_lost->Add();
        tracer.End(election_span_, {{"won", "false"}});
        s_.EndUpgrade();
      });
}

// --- the six upgrade steps (Section III.C) -------------------------------------

void Upgrade::Step1CheckState() {
  s_.coord().GetView(s_.group(), [this, life = weak_from_this()](
                                     Result<coord::GroupView> r) {
    if (life.expired()) return;
    if (!r.ok()) {
      Abort("cannot read view");
      return;
    }
    s_.mutable_view() = std::move(r).value();
    // Step 1: a node that was demoted to junior while competing must stop
    // upgrading and give up the lock; re-election follows.
    if (s_.view().StateOf(s_.id()) == ServerState::kJunior &&
        s_.role() == ServerState::kStandby) {
      Abort("demoted to junior during election");
      return;
    }
    StartStep("step2_flip_states");
    Step2FlipStates();
  });
}

void Upgrade::Step2FlipStates() {
  // Step 2: set ourselves active in the global view. From this moment
  // operations from the previous active are refused by all nodes (its
  // fence token is stale).
  s_.coord().SetState(
      s_.group(), s_.id(), ServerState::kActive, s_.fence(),
      [this, life = weak_from_this()](Result<coord::GroupView> r) {
        if (life.expired()) return;
        if (!r.ok()) {
          Abort("cannot flip own state: " + r.status().ToString());
          return;
        }
        s_.mutable_view() = std::move(r).value();
        // Step 3 is implicit: mutations buffer while switching().
        StartStep("step4_reflush_journals");
        // Before re-flushing, drain any journal tail the previous active
        // managed to persist in the SSP but never replicated to us (e.g.
        // while every standby was transiently demoted). Acked operations
        // must never be lost.
        //
        // The drain consults EVERY placement replica: appends ack on the
        // first replica, so a pool node that was down during a write
        // serves a stale-but-successful reply after restart, and the tail
        // the other replica still holds must not be lost.
        //
        // Each read carries our fence: a replica we drained refuses the
        // previous active's late appends, which would otherwise land after
        // the drain, stay unseen here, and be adopted by renewing juniors.
        s_.ssp().Drain(
            s_.JournalFile(), s_.fence(), [this] { return s_.last_sn(); },
            std::numeric_limits<SerialNumber>::max(),
            [this, life](const storage::SspReadReplyMsg& reply,
                         std::function<void(bool)> next) {
              if (life.expired()) return;
              next(s_.ApplyPoolRecords(reply.records) > 0);
            },
            [this, life](Status) {
              if (!life.expired()) Step4Reflush();
            });
      });
}

void Upgrade::Step4Reflush() {
  // Step 4: re-flush the last eight cached batches to the whole group so
  // that nothing the previous active half-replicated is missing anywhere.
  s_.Resend(s_.members(), std::max<SerialNumber>(s_.last_sn(), 8) - 8);
  StartStep("step5_gather_registrations");
  // Step 5: every group member registers with the elected standby, which
  // confirms each one's state from its journal position. The first round
  // is a non-destructive probe: a registrant AHEAD of us may hold batches
  // that committed on standby acks while the SSP copy failed — Algorithm 1
  // draws randomly among standbys, so the election can pick a laggard.
  // Those batches must be adopted, not destroyed; only after catching up
  // does the final round ask still-ahead peers to discard.
  Step5Round(/*final_round=*/false);
}

void Upgrade::Step5Round(bool final_round) {
  // The round settles on the last answer (ack or failed RPC) from the
  // members the view does not mark down, or at kRegisterWait, whichever
  // comes first; the crashed old active is down and never answers. Down
  // members are still asked, and their acks count if they beat the settle.
  struct Gather {
    std::map<NodeId, SerialNumber> acks;
    std::size_t awaited = 0;
    bool settled = false;
  };
  auto gather = std::make_shared<Gather>();
  auto settle = [this, life = weak_from_this(), gather, final_round] {
    if (life.expired() || gather->settled) return;
    gather->settled = true;
    NodeId source = kInvalidNode;
    SerialNumber target_sn = s_.last_sn();
    for (const auto& [peer, sn] : gather->acks) {
      if (sn > target_sn) {
        target_sn = sn;
        source = peer;
      }
    }
    // Nobody ahead: settle now — the second round (and its extra RTT) only
    // happens on the rare failover where committed state must be adopted.
    if (final_round || source == kInvalidNode) {
      Step5Classify(gather->acks);
      return;
    }
    // Adopt the committed tail from the peer furthest ahead. A failed or
    // stalled fetch (peer gone, or its recent window no longer covers our
    // gap) finalizes with what we have: the peer classifies as a junior
    // and renewal reconciles it.
    s_.CatchUp(
        source,
        [this, life, target_sn](const RenewJournalReplyMsg&) {
          return !life.expired() && s_.last_sn() < target_sn;
        },
        [this, life](Result<SerialNumber>) {
          if (!life.expired()) Step5Round(/*final_round=*/true);
        });
  };
  auto req = std::make_shared<GroupRegisterMsg>();
  req->fence = s_.fence();
  req->active_sn = s_.last_sn();
  req->discard_ahead = final_round;
  for (NodeId peer : s_.members()) {
    if (peer == s_.id()) continue;
    const bool awaited = s_.view().StateOf(peer) != ServerState::kDown;
    if (awaited) ++gather->awaited;
    net::RpcCall::Start(
        s_, peer, req, kRegisterRpc,
        [peer, awaited, gather, settle](Result<net::MessagePtr> r) {
          if (gather->settled) return;  // late: renewal picks the peer up
          if (r.ok()) {
            gather->acks[peer] =
                net::Cast<GroupRegisterAckMsg>(r.value()).max_sn;
          }
          if (awaited && --gather->awaited == 0) settle();
        });
  }
  if (gather->awaited == 0) {
    settle();  // no live member to hear from
  } else {
    s_.AfterLocal(kRegisterWait, settle);
  }
}

void Upgrade::Step5Classify(const std::map<NodeId, SerialNumber>& acks) {
  // Peers classified standby join the 2PC targets through the view.
  for (const auto& [peer, sn] : acks) {
    const ServerState target =
        sn == s_.last_sn() ? ServerState::kStandby : ServerState::kJunior;
    s_.coord().SetState(s_.group(), peer, target, s_.fence(),
                        [](Result<coord::GroupView>) {});
  }
  StartStep("step6_become_active");
  Step6BecomeActive();
}

void Upgrade::Step6BecomeActive() {
  const auto keep = shared_from_this();  // the server lets go next
  s_.EndUpgrade();
  s_.BecomeRole(ServerState::kActive);
  trace_.switch_completed = s_.sim().Now();
  if (s_.failover_log() != nullptr) s_.failover_log()->Record(trace_);
  // Resume whatever shard work the previous active left durable in the
  // journal (roll migrations forward/abort them, re-drive rename intents)
  // before serving the buffered mutations, which the shard fences gate.
  s_.shard().Resume();
  // Commit the requests buffered during the switch (step 3/6).
  for (auto& [req, reply] : buffered_) s_.ProcessClientRequest(req, reply);
  auto& tracer = s_.sim().obs().tracer();
  tracer.End(step_span_);
  tracer.End(buffer_span_,
             {{"buffered", static_cast<std::uint64_t>(buffered_.size())}});
  tracer.End(switch_span_,
             {{"ok", "true"}, {"sn", static_cast<std::uint64_t>(s_.last_sn())}});
}

void Upgrade::Abort(const std::string& why) {
  MAMS_WARN("mds", "%s: upgrade aborted: %s", s_.name().c_str(), why.c_str());
  EndSpans(/*ok=*/false);
  s_.coord().ReleaseLock(s_.group(), [](Status) {});
  s_.set_fence(0);
  // Buffered mutations cannot be honored here; clients retry at the next
  // active after their RPC deadline. They die with this upgrade.
  s_.EndUpgrade();
}

}  // namespace mams::core
