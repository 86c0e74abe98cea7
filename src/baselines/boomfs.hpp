// The Boom-FS baseline (ref [20]): metadata as a Paxos replicated state
// machine with a globally-consistent distributed log.
//
// Every mutation is proposed into the shared Paxos log as the fields of
// its journal record (core::RecordFor); all replicas execute the log in
// order through Tree::Execute, so any replica can be promoted after a
// failure. The cost structure the paper exploits in Figures 6/9: consensus
// on the critical path of every operation (slower failure-free metadata
// ops) and centralized repair-action decisions on failover (the master
// replica change stalls in-flight work — Figure 9 shows Boom-FS map tasks
// suspended during recovery, finishing ~28% later than CFS).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "core/ops.hpp"
#include "paxos/replica.hpp"

namespace mams::baselines {

class BoomFsServer : public paxos::Replica {
 public:
  BoomFsServer(net::Network& network, std::string name)
      : paxos::Replica(network, std::move(name),
                       [this](paxos::InstanceId inst, const paxos::Value& v) {
                         ApplyLogEntry(inst, v);
                       }) {
    OnRequest(net::kClientRequest,
              [this](const net::Envelope&, const net::MessagePtr& msg,
                     const ReplyFn& reply) { HandleClient(msg, reply); });
    OnRequest(net::kTestPing,
              [](const net::Envelope&, const net::MessagePtr& msg,
                 const ReplyFn& reply) { reply(msg); });
  }

  void SetMaster(bool master) { master_ = master; }
  bool master() const noexcept { return master_; }

  /// Post-detection master promotion cost: log recovery, repair-action
  /// decision, lease re-establishment. Centralized in Boom-FS (paper,
  /// Related Work: "centralizing repair action decisions and state
  /// transition ... leads to additional failover time"); fits Figure 9's
  /// map gap.
  static constexpr SimTime kMasterPromotionDelay = 12 * kSecond;

  /// Promotes this replica to master after the centralized repair delay.
  void Promote(std::function<void()> on_ready = nullptr) {
    if (master_ || !alive()) return;
    AfterLocal(kMasterPromotionDelay,
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
      core::FillRead(tree_, *req, *out);
      reply(out);
      return;
    }
    // Mutation: serialize its journal record into the distributed log. The
    // timestamp is decided at apply time.
    const journal::LogRecord rec = core::RecordFor(*req, 0);
    const std::uint64_t token = ++next_token_;
    pending_[token] = reply;
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(rec.op));
    w.Str(rec.path);
    w.Str(rec.path2);
    w.U32(rec.replication);
    w.U64(rec.client.client_id);
    w.U64(rec.client.op_seq);
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
    journal::LogRecord rec;
    rec.op = static_cast<journal::OpCode>(r.U8());
    rec.path = r.Str();
    rec.path2 = r.Str();
    rec.replication = r.U32();
    rec.client = {r.U64(), r.U64()};
    const NodeId proposer = r.U32();
    const std::uint64_t token = r.U64();
    if (!r.ok()) return;

    // Deterministic timestamp: the log position (identical on replicas).
    rec.mtime = static_cast<SimTime>(instance);
    // A resend of an op the log already applied succeeds without running.
    Status status = Status::Ok();
    if (!tree_.IsDuplicate(rec.client)) {
      status = tree_.Execute(std::move(rec)).status();
    }
    // Reply if this replica proposed the entry.
    if (proposer != id()) return;
    auto it = pending_.find(token);
    if (it == pending_.end()) return;
    auto out = std::make_shared<core::ClientResponseMsg>();
    out->ok = status.ok();
    out->code = status.code();
    out->error = status.message();
    it->second(out);
    pending_.erase(it);
  }

  fsns::Tree tree_;
  bool master_ = false;
  std::uint64_t next_token_ = 0;
  std::map<std::uint64_t, ReplyFn> pending_;
};

}  // namespace mams::baselines
