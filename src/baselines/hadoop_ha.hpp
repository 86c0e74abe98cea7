// The Hadoop HA (Quorum Journal Manager) baseline (ref [9]).
//
// The active NameNode writes every journal batch to a set of JournalNodes
// and completes on a majority ack; the standby tails the quorum journal
// periodically; data nodes report blocks to both NameNodes. A ZKFC-style
// monitor detects active failure via session timeout, fences the old
// active, has the standby recover the in-progress log segment from the
// quorum, replay it, and transition to active; clients fail over through
// a configured proxy with retry backoff. MTTR is flat in image size
// (Table I: ~15-19 s) and the quorum write makes the failure-free path
// slower than BackupNode/CFS (Figure 6).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/namenode_base.hpp"
#include "storage/pool_node.hpp"
#include "storage/ssp_messages.hpp"

namespace mams::baselines {

struct HadoopHaOptions {
  int journal_nodes = 4;           ///< paper Section IV.B
  SimTime tail_interval = 2 * kSecond;
  SimTime fence_delay = 3500 * kMillisecond;  ///< ssh fence w/ timeout
  SimTime segment_recovery_extra = 2 * kSecond;  ///< epoch + finalize
  SimTime transition_delay = 2 * kSecond;  ///< state transition + safemode
  SimTime detection_timeout = 5 * kSecond;
  SimTime detection_interval = 2 * kSecond;
};

inline constexpr const char* kQjmEditsFile = "qjm/edits";

/// Active NameNode writing through the quorum journal manager.
class HadoopHaActive : public NameNodeBase {
 public:
  HadoopHaActive(net::Network& network, std::string name,
                 std::vector<NodeId> journal_nodes)
      : NameNodeBase(network, std::move(name)),
        journal_nodes_(std::move(journal_nodes)) {}

 protected:
  bool Serving() const override { return alive(); }

  void PersistBatch(journal::Batch batch) override {
    // Write to every journal node; complete on majority ack.
    auto acks = std::make_shared<int>(0);
    auto done = std::make_shared<bool>(false);
    const int quorum = static_cast<int>(journal_nodes_.size()) / 2 + 1;
    auto msg = std::make_shared<storage::SspWriteMsg>();
    msg->file = kQjmEditsFile;
    msg->record.sn = batch.sn;
    msg->record.bytes = batch.Serialize();
    for (NodeId jn : journal_nodes_) {
      Call(jn, msg, 3 * kSecond,
           [this, acks, done, quorum,
            batch](Result<net::MessagePtr> r) {
             if (*done || !r.ok()) return;
             if (++*acks >= quorum) {
               *done = true;
               CompleteBatch(batch);
             }
           });
    }
  }

 private:
  std::vector<NodeId> journal_nodes_;
};

/// Standby NameNode tailing the quorum journal.
class HadoopHaStandby : public NameNodeBase {
 public:
  HadoopHaStandby(net::Network& network, std::string name,
                  std::vector<NodeId> journal_nodes,
                  HadoopHaOptions options = {})
      : NameNodeBase(network, std::move(name)),
        journal_nodes_(std::move(journal_nodes)),
        options_(options) {}

  /// ZKFC-triggered failover: fence, recover segment, replay, transition.
  void TakeOver() {
    if (serving_ || taking_over_ || !alive()) return;
    taking_over_ = true;
    AfterLocal(options_.fence_delay, [this] { RecoverSegment(0); });
  }

  bool serving() const noexcept { return serving_; }

 protected:
  bool Serving() const override { return alive() && serving_; }

  void PersistBatch(journal::Batch batch) override {
    auto acks = std::make_shared<int>(0);
    auto done = std::make_shared<bool>(false);
    const int quorum = static_cast<int>(journal_nodes_.size()) / 2 + 1;
    auto msg = std::make_shared<storage::SspWriteMsg>();
    msg->file = kQjmEditsFile;
    msg->record.sn = batch.sn;
    msg->record.bytes = batch.Serialize();
    for (NodeId jn : journal_nodes_) {
      Call(jn, msg, 3 * kSecond,
           [this, acks, done, quorum, batch](Result<net::MessagePtr> r) {
             if (*done || !r.ok()) return;
             if (++*acks >= quorum) {
               *done = true;
               CompleteBatch(batch);
             }
           });
    }
  }

  void OnStart() override {
    NameNodeBase::OnStart();
    tail_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim(), options_.tail_interval, [this] { Tail(0, false); });
    tail_timer_->Start();
  }

  void OnCrash() override {
    NameNodeBase::OnCrash();
    tail_timer_.reset();
    serving_ = false;
    taking_over_ = false;
  }

 private:
  void Tail(std::size_t jn_index, bool recovery) {
    if (serving_ || jn_index >= journal_nodes_.size()) return;
    auto msg = std::make_shared<storage::SspReadMsg>();
    msg->file = kQjmEditsFile;
    msg->after_sn = last_sn_;
    msg->max_bytes = 16u << 20;
    Call(journal_nodes_[jn_index], msg, 2 * kSecond,
         [this, jn_index, recovery](Result<net::MessagePtr> r) {
           if (!r.ok()) {
             Tail(jn_index + 1, recovery);  // try the next journal node
             return;
           }
           const auto& reply = net::Cast<storage::SspReadReplyMsg>(r.value());
           for (const auto& rec : reply.records) {
             auto batch = journal::Batch::Deserialize(rec.bytes);
             if (!batch.ok() || batch.value().sn != last_sn_ + 1) continue;
             for (const auto& lr : batch.value().records) ReplayRecord(lr);
             last_sn_ = batch.value().sn;
           }
           if (recovery) {
             if (!reply.eof) {
               Tail(jn_index, true);
               return;
             }
             AfterLocal(options_.segment_recovery_extra +
                            options_.transition_delay,
                        [this] {
                          taking_over_ = false;
                          serving_ = true;
                          tail_timer_.reset();
                          MAMS_INFO("ha", "%s: transition to active (sn=%llu)",
                                    name().c_str(),
                                    (unsigned long long)last_sn_);
                        });
           }
         });
  }

  void RecoverSegment(std::size_t jn_index) { Tail(jn_index, true); }

  std::vector<NodeId> journal_nodes_;
  HadoopHaOptions options_;
  std::unique_ptr<sim::PeriodicTimer> tail_timer_;
  bool serving_ = false;
  bool taking_over_ = false;
};

}  // namespace mams::baselines
