// Host = simulated process + network endpoint + RPC machinery.
//
// Protocol nodes (metadata servers, pool nodes, coordination replicas,
// clients, data servers) derive from Host and get:
//
//   * typed one-way sends:            Send(to, msg)
//   * typed request/response calls:   Call(to, msg, timeout, cb)
//   * handler registration by type:   OnRequest(type, handler)
//
// Host delivers every attempt it receives to the handler: the transport
// keeps no record of past requests. A retried call (net/rpc.hpp) is made
// safe by the protocol that sends it — client-op duplicate suppression,
// the standby's sn check, the SSP fence, shard-record upserts, read-only
// fetches, and the coordination service's one session per (node, group)
// (docs/NETWORKING.md lists which covers what).
//
// Crash semantics: when the process crashes, pending outbound RPCs are
// forgotten (their callbacks never fire — they belonged to the dead
// incarnation), and inbound deliveries bounce because EndpointAlive() is
// false. This is exactly the externally observable behaviour of kill -9.
#pragma once

#include <functional>
#include <unordered_map>
#include <utility>

#include "common/status.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/observability.hpp"
#include "sim/process.hpp"

namespace mams::net {

class Host : public sim::Process, public Endpoint {
 public:
  /// Callback for an RPC: either a response payload or a non-OK status
  /// (TimedOut when no response arrived within the deadline).
  using RpcCallback = std::function<void(Result<MessagePtr>)>;

  /// Reply functor handed to request handlers.
  using ReplyFn = std::function<void(MessagePtr)>;

  /// Request handler: envelope (for sender identity), payload, reply.
  using RequestHandler =
      std::function<void(const Envelope&, const MessagePtr&, const ReplyFn&)>;

  /// Registry-wide counters for the RPC machinery, resolved once per host.
  struct RpcCounters {
    obs::Counter* attempts = nullptr;        ///< every Call() issued
    obs::Counter* retries = nullptr;         ///< re-attempts by RpcCall
    obs::Counter* timeouts = nullptr;        ///< attempts that hit their deadline
    obs::Counter* late_responses = nullptr;  ///< responses dropped at delivery
  };

  Host(Network& network, std::string name)
      : sim::Process(network.sim(), std::move(name)), network_(network) {
    id_ = network_.Attach(this);
    auto& metrics = sim().obs().metrics();
    rpc_counters_.attempts = metrics.counter("net.rpc.attempts");
    rpc_counters_.retries = metrics.counter("net.rpc.retries");
    rpc_counters_.timeouts = metrics.counter("net.rpc.timeouts");
    rpc_counters_.late_responses = metrics.counter("net.rpc.late_responses");
  }

  NodeId id() const noexcept { return id_; }
  Network& network() noexcept { return network_; }
  const RpcCounters& rpc_counters() const noexcept { return rpc_counters_; }

  // --- Endpoint -----------------------------------------------------------
  bool EndpointAlive() const override { return alive(); }

  void Deliver(const Envelope& env) final {
    if (env.is_response) {
      auto it = pending_.find(env.rpc_id);
      if (it == pending_.end()) {
        // Late or duplicate: the attempt already timed out, the call was
        // satisfied by another attempt, or it belonged to a dead
        // incarnation. Count it — a high rate means timeouts are tighter
        // than the network's actual latency.
        rpc_counters_.late_responses->Add();
        MAMS_DEBUG("net", "%s: dropped late/duplicate response rpc_id=%llu from %u",
                   name().c_str(),
                   static_cast<unsigned long long>(env.rpc_id), env.from);
        return;
      }
      PendingRpc rpc = std::move(it->second);
      pending_.erase(it);
      rpc.timeout.Cancel();
      rpc.callback(Result<MessagePtr>(env.payload));
      return;
    }
    auto it = handlers_.find(env.payload->type());
    if (it == handlers_.end()) {
      MAMS_WARN("net", "%s: no handler for message type 0x%04x",
                name().c_str(), env.payload->type());
      return;
    }
    ReplyFn reply = [](MessagePtr) {};
    if (env.rpc_id != 0) {
      const Envelope req = env;  // copy addressing for the closure
      reply = [this, req](MessagePtr response) {
        SendResponse(req.from, req.rpc_id, std::move(response));
      };
    }
    it->second(env, env.payload, reply);
  }

  // --- Outbound -----------------------------------------------------------
  /// Fire-and-forget message.
  void Send(NodeId to, MessagePtr msg) {
    Envelope env;
    env.from = id_;
    env.to = to;
    env.payload = std::move(msg);
    network_.Send(std::move(env));
  }

  /// Request/response with timeout. The callback runs exactly once unless
  /// this process crashes first (then never).
  void Call(NodeId to, MessagePtr msg, SimTime timeout, RpcCallback cb) {
    const std::uint64_t rpc_id = ++next_rpc_id_;
    rpc_counters_.attempts->Add();
    PendingRpc rpc;
    rpc.callback = std::move(cb);
    rpc.timeout = AfterLocal(timeout, [this, rpc_id] {
      auto it = pending_.find(rpc_id);
      if (it == pending_.end()) return;
      PendingRpc timed_out = std::move(it->second);
      pending_.erase(it);
      rpc_counters_.timeouts->Add();
      timed_out.callback(Result<MessagePtr>(
          Status::TimedOut("rpc " + std::to_string(rpc_id))));
    });
    pending_.emplace(rpc_id, std::move(rpc));

    Envelope env;
    env.from = id_;
    env.to = to;
    env.rpc_id = rpc_id;
    env.payload = std::move(msg);
    network_.Send(std::move(env));
  }

  /// Registers (or replaces) the handler for a request type.
  void OnRequest(MsgType type, RequestHandler handler) {
    handlers_[type] = std::move(handler);
  }

 protected:
  void OnCrash() override {
    // Volatile RPC state dies with the process. Timeout events are guarded
    // by AfterLocal and will no-op; dropping entries here frees callbacks.
    pending_.clear();
  }

 private:
  struct PendingRpc {
    RpcCallback callback;
    sim::EventHandle timeout;
  };

  void SendResponse(NodeId to, std::uint64_t rpc_id, MessagePtr payload) {
    Envelope out;
    out.from = id_;
    out.to = to;
    out.rpc_id = rpc_id;
    out.is_response = true;
    out.payload = std::move(payload);
    network_.Send(std::move(out));
  }

  Network& network_;
  NodeId id_ = kInvalidNode;
  RpcCounters rpc_counters_;
  std::unordered_map<std::uint64_t, PendingRpc> pending_;
  std::unordered_map<MsgType, RequestHandler> handlers_;
  std::uint64_t next_rpc_id_ = 0;
};

}  // namespace mams::net
