// Client for the baseline systems: a fixed, ordered list of server
// addresses (primary first). On timeout or "not serving" the client
// advances to the next address after a backoff — modelling HDFS's
// ConfiguredFailoverProxyProvider / client-side reconfiguration. The
// backoff is a per-system constant that each assembly passes in; it
// contributes the client-visible share of each baseline's MTTR.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "net/host.hpp"
#include "net/rpc.hpp"

namespace mams::baselines {

struct BaselineClientOptions {
  SimTime rpc_timeout = 2 * kSecond;
  int max_attempts = 240;
};

class BaselineClient : public net::Host {
 public:
  using OpCallback = std::function<void(Status)>;

  /// `failover_backoff` is the wait before trying the next server.
  BaselineClient(net::Network& network, std::string name,
                 std::vector<NodeId> servers, SimTime failover_backoff,
                 BaselineClientOptions options = {})
      : net::Host(network, std::move(name)),
        servers_(std::move(servers)),
        failover_backoff_(failover_backoff),
        options_(options) {}

  void Create(const std::string& path, OpCallback done,
              std::uint32_t replication = 3) {
    auto req = NewRequest(core::ClientOp::kCreate, path);
    req->replication = replication;
    Issue(std::move(req), std::move(done));
  }
  void Mkdir(const std::string& path, OpCallback done) {
    Issue(NewRequest(core::ClientOp::kMkdir, path), std::move(done));
  }
  void Delete(const std::string& path, OpCallback done) {
    Issue(NewRequest(core::ClientOp::kDelete, path), std::move(done));
  }
  void Rename(const std::string& src, const std::string& dst,
              OpCallback done) {
    auto req = NewRequest(core::ClientOp::kRename, src);
    req->path2 = dst;
    Issue(std::move(req), std::move(done));
  }
  void GetFileInfo(const std::string& path, OpCallback done) {
    Issue(NewRequest(core::ClientOp::kGetFileInfo, path), std::move(done));
  }

 private:
  std::shared_ptr<core::ClientRequestMsg> NewRequest(core::ClientOp op,
                                                     const std::string& path) {
    auto req = std::make_shared<core::ClientRequestMsg>();
    req->op = op;
    req->path = path;
    req->client = {.client_id = static_cast<std::uint64_t>(id()) + 1,
                   .op_seq = ++op_seq_};
    return req;
  }

  struct OpState {
    std::shared_ptr<core::ClientRequestMsg> request;
    OpCallback done;
    int attempts = 1;
    NodeId last_target = kInvalidNode;
  };

  void Issue(std::shared_ptr<core::ClientRequestMsg> req, OpCallback done) {
    auto state = std::make_shared<OpState>();
    state->request = std::move(req);
    state->done = std::move(done);

    // The whole failover-proxy loop as one policy-driven call: each failed
    // attempt rotates the shared server cursor and waits out the
    // per-system failover backoff. The budget is enforced by the cancel
    // hook (counted *before* giving up, as the proxy does), so the final
    // backoff is still paid — it is part of each baseline's
    // client-visible MTTR.
    net::RpcPolicy policy;
    policy.attempt_timeout = options_.rpc_timeout;
    policy.max_attempts = options_.max_attempts + 1;  // last one is cancelled
    policy.backoff_base = failover_backoff_;
    policy.backoff_multiplier = 1.0;
    policy.backoff_cap = failover_backoff_;
    net::RpcHooks hooks;
    hooks.cancelled = [this, state] {
      return state->attempts > options_.max_attempts;
    };
    hooks.target = [this, state](int) {
      state->last_target = servers_[current_];
      return state->last_target;
    };
    hooks.retry_response = [](const net::MessagePtr& msg) {
      const auto& resp = net::Cast<core::ClientResponseMsg>(msg);
      return !resp.ok && resp.code == StatusCode::kUnavailable;
    };
    hooks.on_retry = [this, state](int, const Status&) {
      ++state->attempts;
      // Shared failover-proxy semantics: advance the cursor only if the
      // failed target is still the current one. Concurrent ops failing
      // against the same dead server must not rotate it twice (they would
      // cancel each other out and park the cursor on the dead node).
      if (servers_[current_] == state->last_target) {
        current_ = (current_ + 1) % servers_.size();
      }
    };
    net::RpcCall::Start(
        *this, servers_[current_], state->request, policy,
        [this, state](Result<net::MessagePtr> r) {
          if (!r.ok()) {
            Finish(state, Status::Unavailable("retries exhausted"));
            return;
          }
          const auto& resp = net::Cast<core::ClientResponseMsg>(r.value());
          if (!resp.ok && resp.code == StatusCode::kUnavailable) {
            Finish(state, Status::Unavailable("retries exhausted"));
            return;
          }
          Finish(state,
                 resp.ok ? Status::Ok() : Status(resp.code, resp.error));
        },
        std::move(hooks));
  }

  void Finish(const std::shared_ptr<OpState>& state, Status status) {
    state->done(std::move(status));
  }

  std::vector<NodeId> servers_;
  SimTime failover_backoff_;
  BaselineClientOptions options_;
  std::size_t current_ = 0;
  std::uint64_t op_seq_ = 0;
};

}  // namespace mams::baselines
