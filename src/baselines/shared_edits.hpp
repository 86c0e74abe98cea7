// The shared-edits NameNode: Facebook's AvatarNode (ref [16]) and Hadoop HA
// with the Quorum Journal Manager (ref [9]) are one mechanism.
//
// The active writes every edit batch to a shared log and answers once a
// majority of the log nodes hold it. The standby tails that log and ingests
// block reports from every data server (data nodes talk to BOTH NameNodes),
// so its takeover is warm and flat in image size. A takeover waits out
// `before_final_tail` (HA's ssh fence), drains the log to its end, waits
// `after_final_tail` (Avatar's administrative switch; HA's segment recovery
// and state transition) and then serves.
//
// The two deployments differ only in where the log lives and in their
// timing constants (kAvatar, kHadoopHa). Table I shows both flat in image
// size; Figure 6 shows the synchronous filer write costing the most in the
// failure-free case.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/namenode_base.hpp"
#include "storage/ssp_messages.hpp"

namespace mams::baselines {

/// One shared-log deployment: where the log lives and its timing.
struct SharedEditsDeployment {
  const char* prefix;          ///< node-name prefix of the assembly
  int log_nodes;               ///< write quorum is a majority of these
  SimTime log_disk_latency;    ///< per-write sync latency of a log node
  const char* edits_file;
  SimTime write_timeout;
  SimTime tail_interval;       ///< standby ingest lag
  SimTime before_final_tail;
  SimTime after_final_tail;
  SimTime failover_backoff;    ///< client proxy wait before the next NN
};

/// AvatarNode: one NFS filer whose synchronous write latency dominates the
/// active's commit path (Figure 6's gap vs HDFS/BackupNode). The takeover's
/// administrative switch (lease recovery, safemode re-check, VIP/DNS flip)
/// dominates its MTTR.
inline constexpr SharedEditsDeployment kAvatar{
    .prefix = "avatar",
    .log_nodes = 1,
    .log_disk_latency = 1800 * kMicrosecond,
    .edits_file = "avatar/edits",
    .write_timeout = 5 * kSecond,
    .tail_interval = 300 * kMillisecond,
    .before_final_tail = 0,
    .after_final_tail = 19 * kSecond,
    .failover_backoff = 2 * kSecond,
};

/// Hadoop HA: 4 JournalNodes (paper Section IV.B) that fsync every edit
/// segment write. The takeover fences the old active (ssh fence with
/// timeout), recovers the in-progress segment (epoch + finalize) and
/// transitions to active (state transition + safemode).
inline constexpr SharedEditsDeployment kHadoopHa{
    .prefix = "ha",
    .log_nodes = 4,
    .log_disk_latency = 900 * kMicrosecond,
    .edits_file = "qjm/edits",
    .write_timeout = 3 * kSecond,
    .tail_interval = 2 * kSecond,
    .before_final_tail = 3500 * kMillisecond,
    .after_final_tail = 2 * kSecond + 2 * kSecond,
    .failover_backoff = 1500 * kMillisecond,
};

/// Active or standby NameNode over a shared edit log. The standby does not
/// serve at boot; it tails the log until TakeOver() completes.
class SharedEditsNameNode : public NameNodeBase {
 public:
  SharedEditsNameNode(net::Network& network, std::string name,
                      const SharedEditsDeployment& deployment,
                      std::vector<NodeId> log_nodes, bool standby)
      : NameNodeBase(network, std::move(name)),
        deployment_(deployment),
        log_nodes_(std::move(log_nodes)),
        standby_(standby) {}

  /// Begins the failover sequence (called by the failure monitor).
  void TakeOver() {
    if (serving_ || taking_over_ || !alive()) return;
    taking_over_ = true;
    AfterLocal(deployment_.before_final_tail, [this] { Tail(0, true); });
  }

  bool serving() const noexcept { return serving_; }

 protected:
  bool Serving() const override { return alive() && serving_; }

  void PersistBatch(journal::Batch batch) override {
    // Write to every log node; durable on a majority ack. A log outage
    // stalls the batch (clients time out).
    auto acks = std::make_shared<int>(0);
    const int quorum = static_cast<int>(log_nodes_.size()) / 2 + 1;
    auto msg = std::make_shared<storage::SspWriteMsg>();
    msg->file = deployment_.edits_file;
    msg->record.sn = batch.sn;
    msg->record.bytes = batch.Serialize();
    for (NodeId node : log_nodes_) {
      Call(node, msg, deployment_.write_timeout,
           [this, acks, quorum, batch](Result<net::MessagePtr> r) {
             if (r.ok() && ++*acks == quorum) CompleteBatch(batch);
           });
    }
  }

  void OnStart() override {
    NameNodeBase::OnStart();
    serving_ = !standby_;
    if (!standby_) return;
    tail_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), deployment_.tail_interval, [this] { Tail(0, false); });
    tail_timer_->Start();
  }

  void OnCrash() override {
    NameNodeBase::OnCrash();
    tail_timer_.reset();
    serving_ = false;
    taking_over_ = false;
  }

 private:
  static constexpr SimTime kTailReadTimeout = 2 * kSecond;
  static constexpr std::uint64_t kTailReadBytes = 16u << 20;

  /// Reads the log past last_sn_ from log node `node`. A failed read moves
  /// on to the next node; a periodic pass ends after the last one (the
  /// timer tries again), a final pass retries from the first one tail
  /// interval later. The final pass drains until a node answers with eof,
  /// and only then switches to serving.
  void Tail(std::size_t node, bool final_pass) {
    if (serving_) return;
    if (node == log_nodes_.size()) {
      if (final_pass) {
        AfterLocal(deployment_.tail_interval, [this] { Tail(0, true); });
      }
      return;
    }
    auto msg = std::make_shared<storage::SspReadMsg>();
    msg->file = deployment_.edits_file;
    msg->after_sn = last_sn_;
    msg->max_bytes = kTailReadBytes;
    Call(log_nodes_[node], msg, kTailReadTimeout,
         [this, node, final_pass](Result<net::MessagePtr> r) {
           if (!r.ok()) {
             Tail(node + 1, final_pass);
             return;
           }
           const auto& reply = net::Cast<storage::SspReadReplyMsg>(r.value());
           for (const auto& rec : reply.records) {
             auto batch = journal::Batch::Deserialize(rec.bytes.vector());
             if (!batch.ok() || batch.value().sn != last_sn_ + 1) continue;
             for (const auto& lr : batch.value().records) ReplayRecord(lr);
             last_sn_ = batch.value().sn;
           }
           if (!final_pass) return;
           if (!reply.eof) {
             Tail(node, true);  // keep draining to the end of the log
             return;
           }
           AfterLocal(deployment_.after_final_tail, [this] {
             taking_over_ = false;
             serving_ = true;
             tail_timer_.reset();
             MAMS_INFO(deployment_.prefix, "%s: takeover complete (sn=%llu)",
                       name().c_str(), (unsigned long long)last_sn_);
           });
         });
  }

  const SharedEditsDeployment deployment_;
  std::vector<NodeId> log_nodes_;
  bool standby_;
  std::unique_ptr<sim::PeriodicTimer> tail_timer_;
  bool serving_ = false;
  bool taking_over_ = false;
};

}  // namespace mams::baselines
