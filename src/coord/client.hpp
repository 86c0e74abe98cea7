// Client-side coordination handle: session registration, heartbeating,
// watch subscription, lock bids, and fenced state flips. Owned by any Host
// that participates in a replica group (metadata servers, backup nodes)
// or observes one (file-system clients resolving the active).
//
// All exchanges run through net::RpcCall under fixed per-family policies:
// registration retries until the service answers, election bids loop with
// a fresh draw per attempt (BidLoop), view polls can wait for an active to
// appear (WaitForActive), heartbeats go out every kHeartbeatInterval, and
// everything else is a single bounded attempt (Exchange) whose failure the
// owner handles.
//
// Ownership note: the owning Host must destroy (or Stop()) this object in
// its OnCrash so heartbeats stop — that is exactly what makes the
// coordination service expire the session and trigger failover.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "coord/messages.hpp"
#include "net/host.hpp"
#include "net/rpc.hpp"
#include "sim/simulator.hpp"

namespace mams::coord {

class CoordClient {
 public:
  struct LockResult {
    bool granted = false;
    NodeId holder = kInvalidNode;
    FenceToken fence = 0;
    GroupView view;
  };
  using ViewCallback = std::function<void(Result<GroupView>)>;
  using LockCallback = std::function<void(Result<LockResult>)>;
  using WatchHandler = std::function<void(const GroupView&)>;
  /// (epoch, serialized map); epoch 0 means none published yet.
  using MapHandler =
      std::function<void(std::uint64_t, const std::vector<char>&)>;
  using MapCallback = std::function<void(Status, std::uint64_t,
                                         const std::vector<char>&)>;

  /// Attempt deadline of every exchange with the service (file-system
  /// clients pace their view polls with it too).
  static constexpr SimTime kRpcTimeout = 2 * kSecond;

  CoordClient(net::Host& host, NodeId coord) : host_(host), coord_(coord) {}

  ~CoordClient() { Stop(); }
  CoordClient(const CoordClient&) = delete;
  CoordClient& operator=(const CoordClient&) = delete;

  SessionId session() const noexcept { return session_; }
  bool registered() const noexcept { return session_ != 0; }

  /// Send time of the most recent exchange the service is known to have
  /// processed (registration or acked heartbeat). The service measures
  /// session expiry from *its* receipt of our traffic, which is no earlier
  /// than this, so `last_ack_time() + kSessionTimeout` lower-bounds the
  /// instant a successor could possibly be elected. Lease granting uses
  /// this to never issue a lease that could outlive this node's tenure.
  SimTime last_ack_time() const noexcept { return last_ack_; }

  /// Fires when a heartbeat reveals the session has expired server-side
  /// (the client was partitioned past the timeout). Heartbeating stops;
  /// the owner decides how to rejoin.
  void SetSessionLostHandler(std::function<void()> handler) {
    session_lost_ = std::move(handler);
  }

  /// Routes incoming watch events to `handler`. Call once, before
  /// Register; installs the Host request handler for kCoordWatchEvent.
  void SetWatchHandler(WatchHandler handler) {
    watch_handler_ = std::move(handler);
    InstallWatchHook();
  }

  /// Routes the partition map piggybacked on watch events to `handler`
  /// (fired only when a map has been published, i.e. epoch > 0).
  void SetMapHandler(MapHandler handler) {
    map_handler_ = std::move(handler);
    InstallWatchHook();
  }

  /// Opens a session (joining `group` in `initial` state) and starts
  /// heartbeating. Retries under kRegisterPolicy until the service answers
  /// or Stop() cancels the attempt.
  void Register(GroupId group, ServerState initial, ViewCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kRegister;
    req->group = group;
    req->subject = host_.id();
    req->state = initial;
    net::RpcHooks hooks;
    hooks.cancelled = [this, epoch = epoch_] { return epoch != epoch_; };
    const SimTime sent = host_.sim().Now();
    net::RpcCall::Start(
        host_, coord_, std::move(req), kRegisterPolicy,
        [this, sent, done = std::move(done)](Result<net::MessagePtr> r) {
          if (!r.ok()) {
            done(r.status());
            return;
          }
          const auto& resp = net::Cast<CoordResponseMsg>(r.value());
          if (!resp.ok) {
            done(Status::Unavailable(resp.error));
            return;
          }
          session_ = resp.session;
          last_ack_ = std::max(last_ack_, sent);
          StartHeartbeats();
          done(resp.view);
        },
        std::move(hooks));
  }

  /// Subscribes this host to group-view change events.
  void Watch(GroupId group, std::function<void(Status)> done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kWatch;
    req->group = group;
    req->session = session_;
    Exchange(std::move(req), std::move(done), Acked);
  }

  /// Election bid (Algorithm 1): the draw and max_sn establish priority.
  void TryLock(GroupId group, std::uint64_t draw, SerialNumber max_sn,
               LockCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kTryLock;
    req->group = group;
    req->session = session_;
    req->draw = draw;
    req->max_sn = max_sn;
    net::RpcCall::Start(host_, coord_, std::move(req), kTryLockPolicy,
                        MapLock(std::move(done)));
  }

  /// Algorithm 1's periodic bid: keeps placing fresh-draw bids (the
  /// paper's "each standby tries to obtain a distributed lock
  /// periodically") until the lock is decided — granted to us or observed
  /// held by a peer — or `cancelled` fires. `draw` and `max_sn` are
  /// re-evaluated for every bid; `policy` supplies the pacing.
  void BidLoop(GroupId group, std::function<std::uint64_t()> draw,
               std::function<SerialNumber()> max_sn,
               const net::RpcPolicy& policy, std::function<bool()> cancelled,
               LockCallback done) {
    net::RpcHooks hooks;
    hooks.cancelled = std::move(cancelled);
    hooks.make_message = [this, group, draw = std::move(draw),
                          max_sn = std::move(max_sn)](int) {
      auto req = std::make_shared<CoordRequestMsg>();
      req->op = CoordOp::kTryLock;
      req->group = group;
      req->session = session_;
      req->draw = draw();
      req->max_sn = max_sn();
      return req;
    };
    hooks.retry_response = [](const net::MessagePtr& msg) {
      const auto& resp = net::Cast<CoordResponseMsg>(msg);
      // Keep bidding while the service errs or the lock stays unclaimed.
      return !resp.ok ||
             (!resp.lock_granted && resp.lock_holder == kInvalidNode);
    };
    net::RpcCall::Start(host_, coord_, nullptr, policy,
                        MapLock(std::move(done)), std::move(hooks));
  }

  void ReleaseLock(GroupId group, std::function<void(Status)> done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kReleaseLock;
    req->group = group;
    req->session = session_;
    Exchange(std::move(req), std::move(done), Acked);
  }

  /// Sets `subject`'s state; pass the fence token when flipping a peer.
  void SetState(GroupId group, NodeId subject, ServerState state,
                FenceToken fence, ViewCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kSetState;
    req->group = group;
    req->session = session_;
    req->subject = subject;
    req->state = state;
    req->fence = fence;
    Exchange(std::move(req), std::move(done),
             [](const CoordResponseMsg& resp) -> Result<GroupView> {
               if (!resp.ok) return Status::Aborted(resp.error);
               return resp.view;
             });
  }

  /// Publishes a partition map (one bounded attempt; callers retry — the
  /// service answers a stale epoch with success). `done` gets the map the
  /// service holds once the publish is decided.
  void PublishMap(std::uint64_t epoch, std::vector<char> bytes,
                  MapCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kPublishMap;
    req->session = session_;
    req->map_epoch = epoch;
    req->map_bytes = std::move(bytes);
    ExchangeMap(std::move(req), std::move(done));
  }

  /// Fetches the currently published partition map (epoch 0: none yet).
  void GetMap(MapCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kGetMap;
    req->session = session_;
    ExchangeMap(std::move(req), std::move(done));
  }

  void GetView(GroupId group, ViewCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kGetView;
    req->group = group;
    req->session = session_;
    Exchange(std::move(req), std::move(done),
             [](const CoordResponseMsg& resp) -> Result<GroupView> {
               return resp.view;
             });
  }

  /// Polls the group view until an active appears (the paper's client
  /// reconnection stage). Pacing, jitter, and the poll budget come from
  /// `policy`; `on_retry` fires before each re-poll (attempt number,
  /// failure). Fails with Unavailable when the budget is spent first.
  void WaitForActive(GroupId group, const net::RpcPolicy& policy,
                     std::function<void(int, const Status&)> on_retry,
                     ViewCallback done) {
    auto req = std::make_shared<CoordRequestMsg>();
    req->op = CoordOp::kGetView;
    req->group = group;
    req->session = session_;
    net::RpcHooks hooks;
    hooks.retry_response = [](const net::MessagePtr& msg) {
      return net::Cast<CoordResponseMsg>(msg).view.FindActive() ==
             kInvalidNode;
    };
    hooks.on_retry = std::move(on_retry);
    net::RpcCall::Start(
        host_, coord_, std::move(req), policy,
        [done = std::move(done)](Result<net::MessagePtr> r) {
          if (!r.ok()) {
            done(Status::Unavailable("no active (failing over)"));
            return;
          }
          const auto& resp = net::Cast<CoordResponseMsg>(r.value());
          if (resp.view.FindActive() == kInvalidNode) {
            // Budget exhausted on a still-headless view.
            done(Status::Unavailable("no active (failing over)"));
            return;
          }
          done(resp.view);
        },
        std::move(hooks));
  }

  /// Stops heartbeating and cancels in-flight session registration (crash
  /// path or graceful shutdown).
  void Stop() {
    if (heartbeat_) heartbeat_->Stop();
    heartbeat_.reset();
    session_ = 0;
    ++epoch_;
  }

 private:
  /// Single-shot ops (watch, view, state, release, map): one
  /// bounded attempt whose failure the owner handles.
  static constexpr net::RpcPolicy kRpcPolicy{
      .attempt_timeout = kRpcTimeout,
      .max_attempts = 1,
  };
  /// Session open. A node that cannot open its session cannot participate
  /// at all, so registration keeps trying. Every attempt that arrives is
  /// executed: the service keeps one session per (node, group), so a retry
  /// replaces the session an earlier attempt opened, and the session the
  /// client finally hears about is the live one.
  static constexpr net::RpcPolicy kRegisterPolicy{
      .attempt_timeout = kRpcTimeout,
      .max_attempts = 0,
      .backoff_base = 500 * kMillisecond,
      .backoff_multiplier = 2.0,
      .backoff_cap = 2 * kSecond,
      .jitter = 0.25,
  };
  /// One election bid; BidLoop layers its own pacing on top. Replies wait
  /// out the service-side window, so the deadline is roomier than plain
  /// RPCs.
  static constexpr net::RpcPolicy kTryLockPolicy{
      .attempt_timeout = kRpcTimeout + 2 * kSecond,
      .max_attempts = 1,
  };
  /// One per beat, never retried.
  static constexpr net::RpcPolicy kHeartbeatPolicy{
      .attempt_timeout = kHeartbeatInterval,
      .max_attempts = 1,
  };

  /// The exchange behind every single-shot op: one attempt under
  /// kRpcPolicy. `decode` turns the service's response into `done`'s
  /// argument; a transport failure reaches `done` as its Status.
  template <typename Done, typename Decode>
  void Exchange(std::shared_ptr<CoordRequestMsg> req, Done done,
                Decode decode) {
    net::RpcCall::Start(
        host_, coord_, std::move(req), kRpcPolicy,
        [done = std::move(done),
         decode = std::move(decode)](Result<net::MessagePtr> r) {
          if (!r.ok()) {
            done(r.status());
            return;
          }
          done(decode(net::Cast<CoordResponseMsg>(r.value())));
        });
  }

  /// A map op's exchange: `done` gets the service's map, or the failure.
  void ExchangeMap(std::shared_ptr<CoordRequestMsg> req, MapCallback done) {
    // The response pointer lives for the duration of the callback.
    Exchange(
        std::move(req),
        [done = std::move(done)](Result<const CoordResponseMsg*> r) {
          if (r.ok() && !r.value()->ok) {
            r = Status::Unavailable(r.value()->error);
          }
          if (!r.ok()) {
            done(r.status(), 0, {});
            return;
          }
          done(Status::Ok(), r.value()->map_epoch, r.value()->map_bytes);
        },
        [](const CoordResponseMsg& resp) { return &resp; });
  }

  /// Decodes a plain acknowledgement: ok, or the service's error.
  static Status Acked(const CoordResponseMsg& resp) {
    return resp.ok ? Status::Ok() : Status::Unavailable(resp.error);
  }

  void InstallWatchHook() {
    if (watch_hook_installed_) return;
    watch_hook_installed_ = true;
    host_.OnRequest(net::kCoordWatchEvent,
                    [this](const net::Envelope&, const net::MessagePtr& msg,
                           const net::Host::ReplyFn&) {
                      const auto& event = net::Cast<WatchEventMsg>(msg);
                      if (map_handler_ && event.map_epoch > 0) {
                        map_handler_(event.map_epoch, event.map_bytes);
                      }
                      if (watch_handler_) watch_handler_(event.view);
                    });
  }

  /// Shared TryLock/BidLoop response decoding.
  net::Host::RpcCallback MapLock(LockCallback done) {
    return [done = std::move(done)](Result<net::MessagePtr> r) {
      if (!r.ok()) {
        done(r.status());
        return;
      }
      const auto& resp = net::Cast<CoordResponseMsg>(r.value());
      if (!resp.ok) {
        done(Status::Unavailable(resp.error));
        return;
      }
      LockResult lock;
      lock.granted = resp.lock_granted;
      lock.holder = resp.lock_holder;
      lock.fence = resp.fence_token;
      lock.view = resp.view;
      done(lock);
    };
  }

  void StartHeartbeats() {
    heartbeat_ = std::make_unique<sim::PeriodicTimer>(
        host_.sim(), kHeartbeatInterval, [this] {
          auto hb = std::make_shared<HeartbeatMsg>();
          hb->session = session_;
          const SimTime sent = host_.sim().Now();
          net::RpcCall::Start(host_, coord_, hb, kHeartbeatPolicy,
                              [this, sent](Result<net::MessagePtr> r) {
                                // Timeouts are fine (transient partition);
                                // an explicit "session expired" is terminal.
                                if (!r.ok()) return;
                                const auto& resp =
                                    net::Cast<CoordResponseMsg>(r.value());
                                if (resp.ok) {
                                  last_ack_ = std::max(last_ack_, sent);
                                  return;
                                }
                                if (session_ == 0) return;
                                Stop();
                                if (session_lost_) session_lost_();
                              });
        });
    heartbeat_->Start();
  }

  net::Host& host_;
  NodeId coord_;
  SessionId session_ = 0;
  SimTime last_ack_ = 0;     ///< see last_ack_time()
  std::uint64_t epoch_ = 0;  ///< bumped by Stop(); cancels in-flight joins
  WatchHandler watch_handler_;
  MapHandler map_handler_;
  bool watch_hook_installed_ = false;
  std::function<void()> session_lost_;
  std::unique_ptr<sim::PeriodicTimer> heartbeat_;
};

}  // namespace mams::coord
