// Simulated switched Ethernet connecting all hosts.
//
// Latency model per message (defaults mirror the paper's testbed, one
// gigabit NIC per node):
//
//   delay = base_latency                      (propagation + kernel)
//         + bytes / bandwidth                 (serialization)
//         + U(0, jitter)                      (queueing noise)
//
// Fault injection supported at the link layer:
//   * SetLinkUp(node, false) — "unplug the network wire" (Test B in the
//     paper): the node keeps running but every message to or from it is
//     dropped, including ones already in flight.
//   * Partition(a, b)        — block a specific pair both ways.
//   * SetSendUp / SetRecvUp  — directional gray failure: one half of a
//     node's duplex link dies (a failing transceiver, a one-way firewall
//     rule). The node can still hear the world but not answer, or vice
//     versa — the asymmetry the failure detectors must not be fooled by.
//
// Deliverability is checked both at send time and delivery time, so a wire
// pulled while a message is in flight loses that message, exactly like a
// real cable pull.
#pragma once

#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "net/message_types.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace mams::net {

/// Receiver interface implemented by Host.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void Deliver(const Envelope& env) = 0;
  /// Whether the process behind the endpoint is running.
  virtual bool EndpointAlive() const = 0;
};

struct LinkParams {
  SimTime base_latency = 100 * kMicrosecond;  ///< LAN RTT/2 incl. stack
  double bandwidth_bytes_per_sec = 110.0e6;   ///< effective GbE payload rate
  SimTime jitter = 30 * kMicrosecond;
  SimTime loopback_latency = 5 * kMicrosecond;
};

class Network {
 public:
  explicit Network(sim::Simulator& sim, LinkParams params = {})
      : sim_(sim), params_(params), rng_(sim.rng().Fork(0x6e657400)) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers an endpoint and returns its address.
  NodeId Attach(Endpoint* endpoint) {
    endpoints_.push_back(endpoint);
    link_up_.push_back(true);
    send_up_.push_back(true);
    recv_up_.push_back(true);
    return static_cast<NodeId>(endpoints_.size() - 1);
  }

  sim::Simulator& sim() noexcept { return sim_; }
  const LinkParams& params() const noexcept { return params_; }

  /// Sends an envelope; silently drops it when the link or destination is
  /// unusable (the sender learns about loss only through RPC timeouts —
  /// same observable behaviour as UDP/TCP-reset on a real cluster).
  void Send(Envelope env) {
    ++stats_.sent;
    TypeCounters(env.payload->type()).Count(env.payload->ByteSize());
    if (!Connected(env.from, env.to)) {
      ++stats_.dropped;
      dropped_->Add();
      return;
    }
    const SimTime delay = TransferDelay(env);
    sim_.After(delay, [this, env = std::move(env)] {
      if (!Connected(env.from, env.to)) {
        ++stats_.dropped;
        dropped_->Add();
        return;
      }
      Endpoint* dst = endpoints_[env.to];
      if (dst == nullptr || !dst->EndpointAlive()) {
        ++stats_.dropped;
        dropped_->Add();
        return;
      }
      ++stats_.delivered;
      delivered_->Add();
      dst->Deliver(env);
    });
  }

  /// Link administration (fault injection).
  void SetLinkUp(NodeId node, bool up) { link_up_[node] = up; }

  void Partition(NodeId a, NodeId b) { partitioned_.insert(Key(a, b)); }
  void Heal(NodeId a, NodeId b) { partitioned_.erase(Key(a, b)); }
  void HealAll() { partitioned_.clear(); }

  /// Directional faults: kill only the transmit (or receive) half of a
  /// node's link. Loopback traffic is unaffected (it never leaves the
  /// host). Checked at send and delivery time like every other fault.
  void SetSendUp(NodeId node, bool up) { send_up_[node] = up; }
  void SetRecvUp(NodeId node, bool up) { recv_up_[node] = up; }

  /// Additional queueing noise applied on top of LinkParams::jitter to
  /// every non-loopback message until reset to 0 — a clock-independent
  /// delivery-jitter fault (congested switch).
  void set_extra_jitter(SimTime extra) noexcept {
    extra_jitter_ = extra < 0 ? 0 : extra;
  }
  SimTime extra_jitter() const noexcept { return extra_jitter_; }

  bool Connected(NodeId a, NodeId b) const {
    if (a == b) return link_up_[a];
    return link_up_[a] && link_up_[b] && send_up_[a] && recv_up_[b] &&
           !partitioned_.contains(Key(a, b));
  }

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  // Per-message-type counter handles, resolved once per type and cached so
  // the per-send cost is one hash lookup, not a string concatenation.
  struct PerType {
    obs::Counter* sent;
    obs::Counter* bytes;
    void Count(std::size_t byte_size) {
      sent->Add();
      bytes->Add(byte_size);
    }
  };

  PerType& TypeCounters(MsgType type) {
    auto it = per_type_.find(type);
    if (it == per_type_.end()) {
      const std::string base = MsgTypeName(type);
      auto& registry = sim_.obs().metrics();
      it = per_type_
               .emplace(type, PerType{registry.counter("net.sent." + base),
                                      registry.counter("net.bytes." + base)})
               .first;
    }
    return it->second;
  }

  static std::uint64_t Key(NodeId a, NodeId b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  SimTime TransferDelay(const Envelope& env) {
    if (env.from == env.to) return params_.loopback_latency;
    const double bytes = static_cast<double>(env.payload->ByteSize());
    const auto wire = static_cast<SimTime>(
        bytes / params_.bandwidth_bytes_per_sec * static_cast<double>(kSecond));
    const SimTime jitter_bound = params_.jitter + extra_jitter_;
    const SimTime jitter =
        jitter_bound > 0
            ? static_cast<SimTime>(rng_.Below(
                  static_cast<std::uint64_t>(jitter_bound)))
            : 0;
    return params_.base_latency + wire + jitter;
  }

  sim::Simulator& sim_;
  LinkParams params_;
  SimTime extra_jitter_ = 0;
  Rng rng_;
  std::vector<Endpoint*> endpoints_;
  std::vector<bool> link_up_;
  std::vector<bool> send_up_;
  std::vector<bool> recv_up_;
  std::set<std::uint64_t> partitioned_;
  Stats stats_;
  std::unordered_map<MsgType, PerType> per_type_;
  obs::Counter* delivered_ = sim_.obs().metrics().counter("net.delivered");
  obs::Counter* dropped_ = sim_.obs().metrics().counter("net.dropped");
};

}  // namespace mams::net
