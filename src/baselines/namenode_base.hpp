// NameNodeBase — shared machinery for the HDFS-derived baseline systems
// the paper compares against (vanilla HDFS, BackupNode, AvatarNode,
// Hadoop HA). Each baseline subclass decides
//
//   * Serving():     whether client requests are accepted right now
//                    (safemode / standby / recovering return Unavailable);
//                    the default serves whenever the node is up,
//   * PersistBatch(): what makes a journal batch durable (local disk, NFS
//                    filer, quorum of journal nodes, backup stream) — the
//                    cost of this path is exactly what Figure 6 measures;
//                    the default is vanilla HDFS's local edit-log append.
//
// Recovery paths may also override BlockReportCost() and
// OnBlockReportIngested(). The base owns the namespace tree, CPU model,
// local edit-log disk, journal writer and block-report ingestion, and
// serves clients on the op path MdsServer uses (core/ops.hpp): RecordFor
// and Tree::Execute for mutations (a resend the tree remembers is answered
// without executing it again), FillRead for reads, OpCost for CPU. A
// mutation is answered once its batch is durable.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/messages.hpp"
#include "core/ops.hpp"
#include "fsns/blockmap.hpp"
#include "fsns/tree.hpp"
#include "journal/writer.hpp"
#include "net/host.hpp"
#include "storage/disk.hpp"

namespace mams::baselines {

class NameNodeBase : public net::Host {
 public:
  NameNodeBase(net::Network& network, std::string name)
      : net::Host(network, std::move(name)) {
    OnRequest(net::kClientRequest,
              [this](const net::Envelope&, const net::MessagePtr& msg,
                     const ReplyFn& reply) { HandleClient(msg, reply); });
    OnRequest(net::kBlockReport,
              [this](const net::Envelope&, const net::MessagePtr& msg,
                     const ReplyFn& reply) { HandleBlockReport(msg, reply); });
    // Liveness probe (failure monitors ping this regardless of Serving()).
    OnRequest(net::kTestPing,
              [](const net::Envelope&, const net::MessagePtr& msg,
                 const ReplyFn& reply) { reply(msg); });
  }

  const fsns::Tree& tree() const noexcept { return tree_; }
  fsns::Tree& mutable_tree() noexcept { return tree_; }
  const fsns::BlockMap& blocks() const noexcept { return blocks_; }
  SerialNumber last_sn() const noexcept { return last_sn_; }

  std::uint64_t ops_served() const noexcept { return ops_served_; }

 protected:
  /// Whether this node currently accepts client operations.
  virtual bool Serving() const { return alive(); }

  /// Makes the batch durable per the baseline's redundancy scheme; the
  /// implementation must call CompleteBatch(batch) exactly once when done.
  /// The default appends it to the local sequential edit log (one disk arm).
  virtual void PersistBatch(journal::Batch batch) {
    const auto bytes = static_cast<std::uint64_t>(batch.EncodedSize());
    disk_free_at_ =
        std::max(sim().Now(), disk_free_at_) + disk_.AppendCost(bytes);
    AfterLocal(disk_free_at_ - sim().Now(), [this, batch = std::move(batch)] {
      CompleteBatch(batch);
    });
  }

  /// Hook: a block report was ingested (recovery paths count them).
  virtual void OnBlockReportIngested(const core::BlockReportMsg&) {}

  /// CPU charge for ingesting one block report. Recovery paths override
  /// this to bill the expensive full-scan processing exactly once per
  /// data server (periodic re-reports are incremental and cheap).
  virtual SimTime BlockReportCost(const core::BlockReportMsg& report) {
    return core::BlockReportCost(report);
  }

  void OnStart() override {
    writer_ = std::make_unique<journal::Writer>(
        [this](journal::Batch b, std::vector<char>) {
          last_sn_ = b.sn;
          ++inflight_batches_;
          PersistBatch(std::move(b));
        });
    writer_->Reseed(last_sn_, tree_.last_txid());
  }

  void OnCrash() override {
    net::Host::OnCrash();
    writer_.reset();
    pending_replies_.clear();
    // Namespace is volatile; recovery semantics are subclass-specific.
    tree_.Reset();
    blocks_.Clear();
    last_sn_ = 0;
    cpu_free_at_ = 0;
    inflight_batches_ = 0;
  }

  /// Fires the client replies attached to a durable batch and releases the
  /// next group-commit batch, if records aggregated meanwhile.
  void CompleteBatch(const journal::Batch& batch) {
    for (const auto& rec : batch.records) {
      auto it = pending_replies_.find(rec.txid);
      if (it == pending_replies_.end()) continue;
      for (auto& reply : it->second) ReplyStatus(reply, Status::Ok());
      pending_replies_.erase(it);
    }
    if (inflight_batches_ > 0) --inflight_batches_;
    if (inflight_batches_ == 0 && writer_ && writer_->pending_records() > 0) {
      writer_->Flush();
    }
  }

  SimTime ChargeCpu(SimTime cost) {
    const SimTime start = std::max(sim().Now(), cpu_free_at_);
    cpu_free_at_ = start + cost;
    return cpu_free_at_ - sim().Now();
  }

  void ReplyStatus(const ReplyFn& reply, const Status& status) {
    auto out = std::make_shared<core::ClientResponseMsg>();
    out->ok = status.ok();
    out->code = status.code();
    out->error = status.message();
    reply(out);
  }

  /// Applies a record during recovery/tailing (backup-side replay).
  void ReplayRecord(const journal::LogRecord& rec) { (void)tree_.Apply(rec); }

  fsns::Tree tree_;
  fsns::BlockMap blocks_;
  SerialNumber last_sn_ = 0;

 private:
  void HandleClient(const net::MessagePtr& msg, const ReplyFn& reply) {
    auto req = std::static_pointer_cast<const core::ClientRequestMsg>(msg);
    if (!Serving()) {
      ReplyStatus(reply, Status::Unavailable("namenode not serving"));
      return;
    }
    AfterLocal(ChargeCpu(core::OpCost(req->op)), [this, req, reply] {
      if (!Serving()) {
        ReplyStatus(reply, Status::Unavailable("namenode not serving"));
        return;
      }
      ++ops_served_;
      if (!core::IsMutation(req->op)) {
        auto out = std::make_shared<core::ClientResponseMsg>();
        core::FillRead(tree_, *req, *out);
        reply(out);
        return;
      }
      ExecuteMutation(*req, reply);
    });
  }

  void ExecuteMutation(const core::ClientRequestMsg& req,
                       const ReplyFn& reply) {
    if (tree_.IsDuplicate(req.client)) {
      ReplyStatus(reply, Status::Ok());
      return;
    }
    auto rec = tree_.Execute(core::RecordFor(req, sim().Now()));
    if (!rec.ok()) {
      ReplyStatus(reply, rec.status());
      return;
    }
    const TxId txid = writer_->Append(std::move(rec).value());
    tree_.set_last_txid(txid);
    pending_replies_[txid].push_back(reply);
    // Group commit: flush now when nothing is being persisted; otherwise
    // records aggregate and CompleteBatch releases them.
    if (inflight_batches_ == 0) writer_->Flush();
  }

  void HandleBlockReport(const net::MessagePtr& msg, const ReplyFn& reply) {
    const auto& report = net::Cast<core::BlockReportMsg>(msg);
    const SimTime cost = BlockReportCost(report);
    AfterLocal(ChargeCpu(cost), [this, msg, reply] {
      const auto& rep = net::Cast<core::BlockReportMsg>(msg);
      blocks_.IngestReport(rep.data_server, rep.blocks);
      OnBlockReportIngested(rep);
      reply(std::make_shared<core::BlockReportAckMsg>());
    });
  }

  std::unique_ptr<journal::Writer> writer_;
  std::map<TxId, std::vector<ReplyFn>> pending_replies_;
  SimTime cpu_free_at_ = 0;
  storage::DiskModel disk_;
  SimTime disk_free_at_ = 0;
  std::uint64_t ops_served_ = 0;
  int inflight_batches_ = 0;
};

}  // namespace mams::baselines
