// SspClient — the metadata servers' view of the shared storage pool.
//
// Placement: each shared file is replicated on kReplication pool nodes
// chosen by consistent hashing of the file name over the pool membership.
// Appends go to every replica; the operation completes on the first ACK
// (standby 2PC, not the SSP, is the primary redundancy path for journal
// data — the pool is the catch-up medium for juniors, per Section III.A).
// So one replica may hold a hole another fills: the one read, Drain,
// consults every replica of the placement and merges them into the
// caller's cursor, and an unreachable replica reads as an empty one.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "net/host.hpp"
#include "obs/observability.hpp"
#include "storage/ssp_messages.hpp"

namespace mams::storage {

class SspClient {
 public:
  /// Pool nodes holding a copy of each shared file.
  static constexpr int kReplication = 2;
  /// Deadline of each replica's append.
  static constexpr SimTime kWriteTimeout = 2 * kSecond;
  /// Deadline of each replica read; a silent replica then reads as empty.
  static constexpr SimTime kReadTimeout = 5 * kSecond;
  /// Bytes one read returns at most; callers resume from the reply.
  static constexpr std::uint64_t kReadChunkBytes = 4u << 20;

  SspClient(net::Host& host, std::vector<NodeId> pool)
      : host_(host),
        pool_(std::move(pool)),
        obs_(&host.network().sim().obs()),
        appends_(obs_->metrics().counter("ssp.append")),
        append_fails_(obs_->metrics().counter("ssp.append_fail")),
        append_ns_(obs_->metrics().histogram("ssp.append_ns")),
        reads_(obs_->metrics().counter("ssp.read")) {}

  const std::vector<NodeId>& pool() const noexcept { return pool_; }

  /// Replica placement for a file (deterministic, membership-stable).
  std::vector<NodeId> Placement(const std::string& file) const {
    std::vector<NodeId> replicas;
    if (pool_.empty()) return replicas;
    const std::size_t n = pool_.size();
    const std::size_t start = Fnv1a(file) % n;
    const std::size_t count =
        std::min<std::size_t>(static_cast<std::size_t>(kReplication), n);
    for (std::size_t i = 0; i < count; ++i) {
      replicas.push_back(pool_[(start + i) % n]);
    }
    return replicas;
  }

  /// Appends a record to a shared file on all replicas (their messages
  /// share its payload); `done` fires on the first ACK (or with an error
  /// after every replica failed).
  void Append(const std::string& file, SspRecord record,
              std::function<void(Status)> done) {
    auto replicas = Placement(file);
    appends_->Add();
    if (replicas.empty()) {
      append_fails_->Add();
      done(Status::Unavailable("ssp pool empty"));
      return;
    }
    auto state = std::make_shared<AppendState>();
    state->remaining = replicas.size();
    // Wrap the completion so every append records latency and a span,
    // whichever replica (or timeout) finishes it.
    state->done = [this, done = std::move(done),
                   begin = host_.network().sim().Now(),
                   span = obs_->tracer().Begin("ssp", "append", host_.id(), 0,
                                               {{"file", file}})](
                      Status status) mutable {
      append_ns_->Record(host_.network().sim().Now() - begin);
      if (!status.ok()) append_fails_->Add();
      obs_->tracer().End(span, {{"status", status.ok() ? "ok" : "fail"}});
      done(status);
    };
    for (NodeId replica : replicas) {
      auto msg = std::make_shared<SspWriteMsg>();
      msg->file = file;
      msg->record = record;
      host_.Call(replica, msg, kWriteTimeout,
                 [state](Result<net::MessagePtr> result) {
                   --state->remaining;
                   if (state->finished) return;
                   const bool accepted =
                       result.ok() &&
                       net::Cast<SspWriteAckMsg>(result.value()).ok;
                   if (accepted) {
                     state->finished = true;
                     state->done(Status::Ok());
                   } else if (state->remaining == 0) {
                     state->finished = true;
                     state->done(result.ok()
                                     ? Status::Aborted("fenced by the pool")
                                     : Status::Unavailable(
                                           "all ssp replicas failed"));
                   }
                 });
    }
  }

  /// Applies one replica's reply: extends the caller's cursor with the
  /// records that continue it, then calls `next(advanced)` — possibly
  /// later, to pace the drain. A caller that is gone never calls `next`,
  /// and the drain ends there. An unreachable replica arrives as an empty
  /// reply at eof.
  using Take = std::function<void(const SspReadReplyMsg& reply,
                                  std::function<void(bool advanced)> next)>;

  /// Reads `file` into the caller's cursor (`cursor()`: records with sn at
  /// or below it are held) from every placement replica in order, one
  /// chunk per read. A replica is read on while it advances the cursor and
  /// is not at eof. A pass that advanced may have exposed a record another
  /// replica holds the successor of (holes interleave), so passes repeat
  /// while the last one advanced and the cursor is below `until`. Each read
  /// raises the replica's fence to `fence` (0 fences nobody). `done` gets
  /// Unavailable when no replica answered at all.
  void Drain(const std::string& file, FenceToken fence,
             std::function<SerialNumber()> cursor, SerialNumber until,
             Take take, std::function<void(Status)> done) {
    auto drain = std::make_shared<DrainState>();
    drain->file = file;
    drain->fence = fence;
    drain->cursor = std::move(cursor);
    drain->until = until;
    drain->take = std::move(take);
    drain->done = std::move(done);
    drain->replicas = Placement(file);
    DrainNext(std::move(drain));
  }

 private:
  struct AppendState {
    std::size_t remaining = 0;
    bool finished = false;
    std::function<void(Status)> done;
  };

  struct DrainState {
    std::string file;
    FenceToken fence = 0;
    std::function<SerialNumber()> cursor;
    SerialNumber until = 0;
    Take take;
    std::function<void(Status)> done;
    std::vector<NodeId> replicas;
    std::size_t replica = 0;  ///< placement index being read
    bool progressed = false;  ///< this pass advanced the cursor
    bool answered = false;    ///< some replica replied
  };

  void DrainNext(std::shared_ptr<DrainState> drain) {
    if (drain->replica >= drain->replicas.size()) {
      if (!drain->progressed || drain->cursor() >= drain->until) {
        drain->done(drain->answered ? Status::Ok()
                                    : Status::Unavailable(
                                          "all ssp replicas failed for " +
                                          drain->file));
        return;
      }
      drain->replica = 0;
      drain->progressed = false;
    }
    auto msg = std::make_shared<SspReadMsg>();
    msg->file = drain->file;
    msg->after_sn = drain->cursor();
    msg->max_bytes = kReadChunkBytes;
    msg->fence = drain->fence;
    reads_->Add();
    host_.Call(
        drain->replicas[drain->replica], std::move(msg), kReadTimeout,
        [this, drain](Result<net::MessagePtr> result) {
          static const SspReadReplyMsg kUnanswered;  // no records, eof
          std::shared_ptr<const SspReadReplyMsg> reply;
          if (result.ok()) {
            drain->answered = true;
            reply = std::static_pointer_cast<const SspReadReplyMsg>(
                std::move(result).value());
          }
          const SspReadReplyMsg& r = reply ? *reply : kUnanswered;
          drain->take(r, [this, drain, eof = r.eof](bool advanced) {
            drain->progressed = drain->progressed || advanced;
            // Stale, drained, or a hole this replica cannot fill: move on.
            if (!advanced || eof) ++drain->replica;
            DrainNext(drain);
          });
        });
  }

  net::Host& host_;
  std::vector<NodeId> pool_;
  obs::Observability* obs_;
  obs::Counter* appends_;
  obs::Counter* append_fails_;
  obs::Histogram* append_ns_;
  obs::Counter* reads_;
};

}  // namespace mams::storage
