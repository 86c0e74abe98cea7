// CommitPath — the active's pipelined modified 2PC. It exists exactly
// while its server is active: the step-down or crash ending the tenure
// destroys it with every round in flight, and its callbacks hold a
// weak_ptr and return once it expired. Pending records seal into one batch
// when a 2PC slot is free and the batch's fan-out can start: at once when
// no round is in flight or the CPU is idle, else when the CPU backlog
// drains (SealIfSlotFree, the one sealing rule). A batch completes once
// every target standby answered and the SSP copy is durable, and replies
// leave strictly in sn order, each once its batch and every one before it
// has a copy outside this process.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/messages.hpp"
#include "journal/writer.hpp"
#include "obs/trace.hpp"
#include "storage/shared_file.hpp"

namespace mams::core {

class MdsServer;

class CommitPath : public std::enable_shared_from_this<CommitPath> {
 public:
  /// Continues the journal after the server's last sn and txid.
  explicit CommitPath(MdsServer& server);
  CommitPath(const CommitPath&) = delete;
  CommitPath& operator=(const CommitPath&) = delete;

  /// Journals a record the server already applied; returns its txid.
  TxId Append(journal::LogRecord rec);
  /// `reply` gets an ok ClientResponseMsg once `txid`'s batch commits, or
  /// "server deposed" if the tenure ends first (FailPending).
  void Await(TxId txid, ReplyFn reply) {
    pending_replies_[txid].push_back(std::move(reply));
  }
  /// A resend of a client op the tree already applied: `reply` gets ok
  /// when the batch holding the op's record leaves, or at once when no
  /// batch of this tenure still holds it.
  void AwaitResend(ClientOpId client, const ReplyFn& reply);
  /// The append half of a client mutation: journals `rec`, revokes the
  /// leases it conflicts with, and replies once its batch commits.
  void Commit(const ClientRequestMsg& req, journal::LogRecord rec,
              const ReplyFn& reply);
  /// Seals every pending record into one batch when fewer than
  /// kCommitWindow rounds are in flight and either none is or the CPU is
  /// idle; returns whether it sealed. A batch sealed into a busy CPU would
  /// not leave sooner (its fan-out queues behind the ops ahead of it), so
  /// otherwise it arms one seal for the instant the current backlog drains,
  /// which seals whatever is pending then (`may_defer` false) if a slot is
  /// free.
  bool SealIfSlotFree(bool may_defer = true);
  /// 2PC rounds in flight, plus one while records wait to seal.
  std::size_t queue_depth() const noexcept {
    return pending_sync_.size() + (writer_.pending_records() > 0 ? 1 : 0);
  }
  /// Work not yet committed: a step-down then rebuilds the namespace.
  bool HoldsUncommitted() const noexcept {
    return !pending_replies_.empty() || queue_depth() > 0;
  }
  /// Step-down: fails every pending reply so callers re-resolve the active.
  void FailPending();

  // The 2PC targets are the view's standbys.
  /// Drops targets the view no longer calls standby and adds the rest.
  void TrackView();
  /// Anti-entropy: adds the view's standbys (a transient partition may have
  /// left the set stale) and nudges every target with the newest batch, so
  /// a receiver that silently missed traffic backfills.
  void Reconcile();
  /// Final synchronization of a renewed junior: it joins live replication
  /// and gets the recent batches after `after_sn` (sn-deduped).
  void Include(NodeId junior, SerialNumber after_sn);

  /// 2PC rounds in flight at most (the sweep is in docs/PERFORMANCE.md §3).
  static constexpr std::size_t kCommitWindow = 4;

 private:
  struct PendingSync {
    BatchPtr batch;
    storage::Payload payload;   ///< the seal-time bytes the SSP copy holds
    std::set<NodeId> awaiting;  ///< standbys not yet acked
    int acks = 0;               ///< successful standby replications
    bool ssp_done = false;
    bool ssp_ok = false;
    bool completed = false;
    SimTime begin = 0;
    obs::TraceRecorder::Span span;
  };
  /// The writer's sink: starts the round, the SSP copy first and then the
  /// prepare to every target.
  void OnBatchSealed(journal::Batch batch, std::vector<char> bytes);
  /// A prepare sent at `sent` was answered (or failed) with `r`.
  void OnPrepareAck(NodeId peer, SerialNumber sn, SimTime sent,
                    const Result<net::MessagePtr>& r);
  void MaybeCompleteSync(SerialNumber sn);
  /// Finalizes completed rounds strictly from the front (sn order), then
  /// seals what waited for the freed slot.
  void FinalizeCompletedSyncs();
  /// Re-appends `batch`'s sealed `payload` to the SSP after
  /// kSspAppendRetry, until it sticks or the tenure ends; a held batch then
  /// turns durable.
  void RetrySspAppend(BatchPtr batch, storage::Payload payload);
  void DemoteUnresponsiveStandby(NodeId peer);
  void AddViewStandbys();

  MdsServer& s_;
  journal::Writer writer_;
  std::map<SerialNumber, PendingSync> pending_sync_;
  bool finalizing_syncs_ = false;  ///< re-entrancy guard
  bool seal_armed_ = false;        ///< a CPU-drain seal is scheduled
  SimTime oldest_pending_at_ = 0;  ///< append time of the oldest pending record
  std::map<TxId, std::vector<ReplyFn>> pending_replies_;
  /// Finalized batches whose replies have not left, in sn order. One is
  /// durable once a standby acked it or its SSP copy stuck; replies leave
  /// from the front up to the first that is not.
  struct Held {
    BatchPtr batch;
    bool durable = false;
  };
  std::deque<Held> held_;
  std::set<NodeId> targets_;  ///< peers included in 2PC
};

}  // namespace mams::core
