// RpcPolicy + RpcCall — the unified retry layer above Host::Call.
//
// Every request/response exchange in the system used to hand-roll its own
// timer-and-retry loop; this file replaces those with one policy object
// (per-attempt timeout, bounded attempts, exponential backoff with
// optional jitter) and one state machine (RpcCall) driven
// entirely by the simulator clock. Each attempt gets a fresh rpc_id and is
// executed by the receiver; the protocol that sends a retried call makes
// its re-execution safe (see host.hpp).
//
// Determinism: backoff jitter draws from the simulator's RNG, and only
// when jitter > 0 — policies with jitter = 0 consume no randomness, so
// adding a retry policy to a path does not perturb unrelated draws.
//
// Crash semantics fall out of AfterLocal: a crash of the calling process
// silently cancels the pending attempt and any scheduled retry — exactly
// the "pending RPCs are forgotten" contract of Host.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "net/host.hpp"
#include "net/message_types.hpp"

namespace mams::net {

/// Declarative retry behaviour for one call family. Field order matters
/// for designated initializers — keep timeout/attempt knobs first.
struct RpcPolicy {
  /// Deadline for each individual attempt.
  SimTime attempt_timeout = 2 * kSecond;
  /// Total send budget; <= 0 means unlimited (bound it with a
  /// `cancelled` hook instead).
  int max_attempts = 1;
  /// Delay before the 2nd attempt; grows by `backoff_multiplier` per
  /// retry up to `backoff_cap`.
  SimTime backoff_base = 100 * kMillisecond;
  double backoff_multiplier = 2.0;
  SimTime backoff_cap = 5 * kSecond;
  /// Adds U(0, jitter * delay) on top of the computed backoff. 0 keeps the
  /// schedule exact (and consumes no RNG draws).
  double jitter = 0.0;

  /// Backoff delay scheduled before attempt `attempt` (2-based: the wait
  /// between attempt 1 and attempt 2 is `backoff_base`).
  SimTime BackoffBeforeAttempt(int attempt, Rng& rng) const {
    SimTime delay = backoff_base;
    for (int i = 2; i < attempt && delay < backoff_cap; ++i) {
      delay = static_cast<SimTime>(static_cast<double>(delay) *
                                   backoff_multiplier);
    }
    delay = std::min(delay, backoff_cap);
    if (jitter > 0.0 && delay > 0) {
      const auto span =
          static_cast<std::uint64_t>(jitter * static_cast<double>(delay));
      if (span > 0) delay += static_cast<SimTime>(rng.Below(span));
    }
    return delay;
  }
};

/// Optional per-call behaviour injected into RpcCall. All hooks may be
/// empty; each defaults to the obvious fixed behaviour.
struct RpcHooks {
  /// Destination for the given attempt (1-based). Lets failover-style
  /// callers rotate through replicas; returning kInvalidNode burns the
  /// attempt as an immediate failure (useful when no target is known yet).
  std::function<NodeId(int attempt)> target;
  /// Builds a fresh payload per attempt (1-based). Election bids use this
  /// to redraw; when set, the message passed to Start() may be null.
  std::function<MessagePtr(int attempt)> make_message;
  /// Inspects a successful response; returning true treats it as a
  /// retryable failure (e.g. "no active yet, poll again"). If attempts run
  /// out, the last such response is delivered as the call's result so the
  /// caller can surface its error detail.
  std::function<bool(const MessagePtr&)> retry_response;
  /// Runs when a retry is scheduled, before its backoff. `attempt` is the
  /// upcoming attempt number; `why` the failure that triggered it.
  std::function<void(int attempt, const Status& why)> on_retry;
  /// Polled before each attempt (including the first) and after each
  /// failure; returning true aborts the call with Status::Aborted.
  std::function<bool()> cancelled;
};

/// One logical RPC executed under a policy. Self-owning: Start() schedules
/// the first attempt and the object keeps itself alive through the
/// callbacks it registers; a crash of the owning host drops those
/// references and the call evaporates with the process.
class RpcCall : public std::enable_shared_from_this<RpcCall> {
 public:
  static void Start(Host& host, NodeId to, MessagePtr msg,
                    const RpcPolicy& policy, Host::RpcCallback done,
                    RpcHooks hooks = {}) {
    auto call = std::shared_ptr<RpcCall>(new RpcCall(
        host, to, std::move(msg), policy, std::move(done), std::move(hooks)));
    call->Attempt();
  }

 private:
  RpcCall(Host& host, NodeId to, MessagePtr msg, const RpcPolicy& policy,
          Host::RpcCallback done, RpcHooks hooks)
      : host_(host),
        to_(to),
        msg_(std::move(msg)),
        policy_(policy),
        done_(std::move(done)),
        hooks_(std::move(hooks)) {}

  void Attempt() {
    if (hooks_.cancelled && hooks_.cancelled()) {
      Finish(Status::Aborted("rpc cancelled"));
      return;
    }
    ++attempt_;
    if (hooks_.make_message) msg_ = hooks_.make_message(attempt_);
    const NodeId to = hooks_.target ? hooks_.target(attempt_) : to_;

    if (to == kInvalidNode) {
      HandleFailure(Status::Unavailable("no target for rpc attempt"));
      return;
    }

    auto& tracer = host_.sim().obs().tracer();
    span_ = tracer.Begin(
        "rpc", MsgTypeName(msg_->type()), host_.id(), 0,
        {{"to", static_cast<std::uint64_t>(to)},
         {"attempt", static_cast<std::uint64_t>(attempt_)}});
    auto self = shared_from_this();
    host_.Call(to, msg_, policy_.attempt_timeout,
               [self](Result<MessagePtr> r) { self->OnResult(std::move(r)); });
  }

  void OnResult(Result<MessagePtr> r) {
    auto& tracer = host_.sim().obs().tracer();
    tracer.End(span_, {{"status", std::string(r.ok() ? "ok"
                                                     : r.status().message())}});
    if (r.ok()) {
      if (hooks_.retry_response && hooks_.retry_response(r.value())) {
        last_retryable_ = r.value();
        HandleFailure(Status::Unavailable("retryable response"));
        return;
      }
      Finish(std::move(r));
      return;
    }
    last_retryable_.reset();
    HandleFailure(r.status());
  }

  void HandleFailure(const Status& why) {
    if (hooks_.cancelled && hooks_.cancelled()) {
      Finish(Status::Aborted("rpc cancelled"));
      return;
    }
    if (policy_.max_attempts > 0 && attempt_ >= policy_.max_attempts) {
      // Budget spent. A final retryable *response* is still a response —
      // hand it to the caller so its error detail survives.
      if (last_retryable_) {
        Finish(Result<MessagePtr>(std::move(last_retryable_)));
      } else {
        Finish(why);
      }
      return;
    }
    const SimTime backoff =
        policy_.BackoffBeforeAttempt(attempt_ + 1, host_.sim().rng());
    host_.rpc_counters().retries->Add();
    if (hooks_.on_retry) hooks_.on_retry(attempt_ + 1, why);
    auto self = shared_from_this();
    host_.AfterLocal(backoff, [self] { self->Attempt(); });
  }

  void Finish(Result<MessagePtr> r) {
    if (done_) {
      auto done = std::move(done_);
      done_ = nullptr;
      done(std::move(r));
    }
  }

  Host& host_;
  NodeId to_;
  MessagePtr msg_;
  const RpcPolicy policy_;
  Host::RpcCallback done_;
  RpcHooks hooks_;
  int attempt_ = 0;
  MessagePtr last_retryable_;
  obs::TraceRecorder::Span span_;
};

}  // namespace mams::net
