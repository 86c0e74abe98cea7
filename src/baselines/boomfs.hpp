// The Boom-FS baseline (ref [20]): metadata as a Paxos replicated state
// machine with a globally-consistent distributed log.
//
// Every mutation is proposed into the shared Paxos log; all replicas apply
// the log in order, so any replica can be promoted after a failure. The
// cost structure the paper exploits in Figures 6/9: consensus on the
// critical path of every operation (slower failure-free metadata ops) and
// centralized repair-action decisions on failover (the master replica
// change stalls in-flight work — Figure 9 shows Boom-FS map tasks
// suspended during recovery, finishing ~28% later than CFS).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "core/messages.hpp"
#include "paxos/replica.hpp"

namespace mams::baselines {

struct BoomFsOptions {
  /// Post-detection master promotion cost: log recovery, repair-action
  /// decision, lease re-establishment. Centralized in Boom-FS (paper,
  /// Related Work: "centralizing repair action decisions and state
  /// transition ... leads to additional failover time").
  SimTime master_promotion_delay = 12 * kSecond;
};

class BoomFsServer : public paxos::Replica {
 public:
  BoomFsServer(net::Network& network, std::string name,
               BoomFsOptions options = {})
      : paxos::Replica(
            network, std::move(name),
            [this](paxos::InstanceId inst, const paxos::Value& v) {
              ApplyLogEntry(inst, v);
            }),
        options_(options) {
    OnRequest(net::kClientRequest,
              [this](const net::Envelope&, const net::MessagePtr& msg,
                     const ReplyFn& reply) { HandleClient(msg, reply); });
    OnRequest(net::kTestPing,
              [](const net::Envelope&, const net::MessagePtr& msg,
                 const ReplyFn& reply) { reply(msg); });
  }

  void SetMaster(bool master) { master_ = master; }
  bool master() const noexcept { return master_; }

  /// Promotes this replica to master after the centralized repair delay.
  void Promote(std::function<void()> on_ready = nullptr) {
    if (master_ || !alive()) return;
    AfterLocal(options_.master_promotion_delay,
               [this, on_ready = std::move(on_ready)] {
                 master_ = true;
                 if (on_ready) on_ready();
               });
  }

  const fsns::Tree& tree() const noexcept { return tree_; }

 protected:
  void OnCrash() override {
    paxos::Replica::OnCrash();
    master_ = false;
    pending_.clear();
    tree_.Reset();
  }

 private:
  void HandleClient(const net::MessagePtr& msg, const ReplyFn& reply) {
    auto req = std::static_pointer_cast<const core::ClientRequestMsg>(msg);
    if (!master_) {
      auto out = std::make_shared<core::ClientResponseMsg>();
      out->ok = false;
      out->code = StatusCode::kUnavailable;
      out->error = "not master";
      reply(out);
      return;
    }
    if (!core::IsMutation(req->op)) {
      // Reads served from the master's applied state.
      auto out = std::make_shared<core::ClientResponseMsg>();
      if (req->op == core::ClientOp::kGetFileInfo) {
        auto info = tree_.GetFileInfo(req->path);
        out->ok = info.ok();
        if (info.ok()) out->info = std::move(info).value();
        else out->code = info.status().code();
      } else {
        auto names = tree_.ListDir(req->path);
        out->ok = names.ok();
        if (names.ok()) out->listing = std::move(names).value();
        else out->code = names.status().code();
      }
      reply(out);
      return;
    }
    // Mutation: serialize into the distributed log.
    const std::uint64_t token = ++next_token_;
    pending_[token] = reply;
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(req->op));
    w.Str(req->path);
    w.Str(req->path2);
    w.U32(req->replication);
    w.U64(req->client.client_id);
    w.U64(req->client.op_seq);
    w.U32(id());
    w.U64(token);
    Propose(std::string(w.bytes().data(), w.bytes().size()),
            [this, token](Status s, paxos::InstanceId) {
              if (s.ok()) return;  // reply happens at apply time
              auto it = pending_.find(token);
              if (it == pending_.end()) return;
              auto out = std::make_shared<core::ClientResponseMsg>();
              out->ok = false;
              out->code = StatusCode::kUnavailable;
              out->error = s.ToString();
              it->second(out);
              pending_.erase(it);
            });
  }

  void ApplyLogEntry(paxos::InstanceId instance, const paxos::Value& v) {
    ByteReader r(v.data(), v.size());
    const auto op = static_cast<core::ClientOp>(r.U8());
    const std::string path = r.Str();
    const std::string path2 = r.Str();
    const std::uint32_t replication = r.U32();
    ClientOpId client{r.U64(), r.U64()};
    const NodeId proposer = r.U32();
    const std::uint64_t token = r.U64();
    if (!r.ok()) return;

    // Deterministic timestamp: the log position (identical on replicas).
    const SimTime mtime = static_cast<SimTime>(instance);
    Result<journal::LogRecord> rec = Status::Internal("unhandled");
    switch (op) {
      case core::ClientOp::kCreate:
        rec = tree_.Create(path, replication, mtime, client);
        break;
      case core::ClientOp::kMkdir:
        rec = tree_.Mkdir(path, mtime, client);
        break;
      case core::ClientOp::kDelete:
        rec = tree_.Delete(path, mtime, client);
        break;
      case core::ClientOp::kRename:
        rec = tree_.Rename(path, path2, mtime, client);
        break;
      case core::ClientOp::kSetReplication:
        rec = tree_.SetReplication(path, replication, mtime, client);
        break;
      case core::ClientOp::kAddBlock:
        rec = tree_.AddBlock(path, mtime, client);
        break;
      case core::ClientOp::kCompleteFile:
        rec = tree_.CompleteFile(path, mtime, client);
        break;
      default:
        break;
    }
    // Reply if this replica proposed the entry.
    if (proposer != id()) return;
    auto it = pending_.find(token);
    if (it == pending_.end()) return;
    auto out = std::make_shared<core::ClientResponseMsg>();
    if (rec.ok() || (rec.status().code() == StatusCode::kAborted &&
                     rec.status().message() == "duplicate")) {
      out->ok = true;
    } else {
      out->ok = false;
      out->code = rec.status().code();
      out->error = rec.status().message();
    }
    it->second(out);
    pending_.erase(it);
  }

  BoomFsOptions options_;
  fsns::Tree tree_;
  bool master_ = false;
  std::uint64_t next_token_ = 0;
  std::map<std::uint64_t, ReplyFn> pending_;
};

}  // namespace mams::baselines
