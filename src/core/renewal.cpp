#include "core/renewal.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/mds_server.hpp"

namespace mams::core {

namespace {

/// A junior this few batches behind enters the final synchronization stage;
/// juniors report progress at this cadence.
constexpr SerialNumber kFinalSyncGap = 32;
constexpr SimTime kRenewProgressInterval = 200 * kMillisecond;

}  // namespace

// --- active side -----------------------------------------------------------------

void Renewal::Lead(bool active) {
  if (!active) {
    scan_timer_.reset();
    checkpoint_timer_.reset();
    return;
  }
  scan_timer_ = std::make_unique<sim::PeriodicTimer>(
      s_.sim(), s_.options().renew_scan_period, [this] { Scan(); });
  scan_timer_->Start();
  checkpoint_timer_ = std::make_unique<sim::PeriodicTimer>(
      s_.sim(), s_.options().checkpoint_interval, [this] { WriteCheckpoint(); });
  checkpoint_timer_->Start();
}

void Renewal::Scan() {
  s_.commit()->Reconcile();
  if (target_ != kInvalidNode) return;
  // "During the runtime, the active scans the global view periodically and
  // tries to launch the renewing process when there are juniors."
  for (const auto& [node, state] : s_.view().states) {
    if (node == s_.id() || state != ServerState::kJunior) continue;
    target_ = node;
    auto cmd = std::make_shared<RenewCommandMsg>();
    cmd->fence = s_.fence();
    cmd->active_sn = s_.last_sn();
    if (latest_image_.has_value()) {
      cmd->image_file = latest_image_->first;
      cmd->image_sn = latest_image_->second;
    }
    s_.Send(node, cmd);
    // If the junior makes no progress at all, give up and rescan later.
    s_.AfterLocal(30 * kSecond, [this, node] {
      if (target_ == node &&
          s_.view().StateOf(node) != ServerState::kStandby) {
        target_ = kInvalidNode;
      }
    });
    return;
  }
}

void Renewal::HandleProgress(const net::Envelope& env,
                             const net::MessagePtr& msg) {
  if (!s_.commit()) return;  // only the active renews
  const auto& prog = net::Cast<RenewProgressMsg>(msg);
  const NodeId junior = env.from;
  if (prog.failed) {
    if (target_ == junior) target_ = kInvalidNode;
    return;
  }
  const SerialNumber last = s_.last_sn();
  if (last > prog.current_sn + kFinalSyncGap) return;  // keep catching up

  // Final synchronization: include the junior in live replication. Upgrade
  // it once it is inside the live stream and within the final-sync gap; its
  // contiguous apply cursor plus the backfill path close any residual holes.
  s_.commit()->Include(junior, prog.current_sn);
  if (s_.view().StateOf(junior) != ServerState::kJunior) return;
  s_.coord().SetState(
      s_.group(), junior, ServerState::kStandby, s_.fence(),
      [this, junior](Result<coord::GroupView> r) {
        if (!r.ok()) return;
        s_.m().renews_completed->Add();
        s_.sim().obs().tracer().Instant("renew", "junior_promoted", junior,
                                        s_.group());
        if (target_ == junior) target_ = kInvalidNode;
      });
}

// --- checkpoints ------------------------------------------------------------

void Renewal::WriteCheckpoint() {
  const SerialNumber sn = s_.last_sn();
  if (latest_image_.has_value() && latest_image_->second == sn) return;
  auto write = std::make_shared<CheckpointWrite>();
  write->file = pool_files::Image(s_.group(), sn, s_.fence());
  write->sn = sn;
  write->bytes = s_.tree().SaveImage();
  // A previous checkpoint abandoned mid-write leaves its span open; close
  // it before starting the next attempt.
  auto& tracer = s_.sim().obs().tracer();
  tracer.End(checkpoint_span_, {{"ok", "abandoned"}});
  checkpoint_span_ = tracer.Begin(
      "mds", "checkpoint", s_.id(), s_.group(),
      {{"sn", static_cast<std::uint64_t>(sn)},
       {"bytes", static_cast<std::uint64_t>(write->bytes.size())}});
  write->logical = static_cast<std::uint64_t>(
      static_cast<double>(write->bytes.size()) * s_.options().image_inflation);
  const std::uint64_t chunk_logical = s_.options().image_chunk_bytes;
  write->chunks = std::max<std::size_t>(
      1, (write->logical + chunk_logical - 1) / chunk_logical);
  WriteCheckpointChunk(std::move(write), 0);
}

void Renewal::WriteCheckpointChunk(
    std::shared_ptr<const CheckpointWrite> write, std::size_t i) {
  // Chunks go out sequentially; each record carries an even slice of the
  // real bytes and an even share of the logical size. Only the pending
  // append's callback holds `write`, so the image bytes are freed once the
  // last chunk lands or the checkpoint is abandoned.
  if (i >= write->chunks) {
    latest_image_ = {write->file, write->sn};
    s_.sim().obs().tracer().End(checkpoint_span_, {{"ok", "true"}});
    return;
  }
  storage::SspRecord rec;
  rec.sn = i + 1;  // chunk ordinal
  rec.fence = s_.fence();
  const std::size_t lo = write->bytes.size() * i / write->chunks;
  const std::size_t hi = write->bytes.size() * (i + 1) / write->chunks;
  rec.bytes = std::vector<char>(write->bytes.begin() + static_cast<long>(lo),
                                write->bytes.begin() + static_cast<long>(hi));
  rec.logical_bytes = write->logical / write->chunks;
  s_.ssp().Append(write->file, std::move(rec), [this, write, i](Status st) {
    if (!st.ok()) return;  // abandoned checkpoint; next timer tick retries
    WriteCheckpointChunk(write, i + 1);
  });
}

// --- junior side -------------------------------------------------------------

bool Renewal::Renewing(std::uint64_t run) const {
  return running_ && run == run_ && s_.role() == ServerState::kJunior;
}

void Renewal::HandleCommand(const net::MessagePtr& msg) {
  const auto& cmd = net::Cast<RenewCommandMsg>(msg);
  if (s_.role() != ServerState::kJunior || running_) return;  // resume
  running_ = true;
  ++run_;
  const SerialNumber last = s_.last_sn();
  span_ = s_.sim().obs().tracer().Begin(
      "renew", "renewing", s_.id(), s_.group(),
      {{"from_sn", static_cast<std::uint64_t>(last)},
       {"target_sn", static_cast<std::uint64_t>(cmd.active_sn)}});

  // A fresh junior (last == 0) takes the image even when it sits at sn 0:
  // a setup checkpoint of a preloaded namespace holds state that no
  // journal record carries.
  const bool use_image =
      !cmd.image_file.empty() && (cmd.image_sn > last || last == 0) &&
      (last == 0 || cmd.active_sn - last > s_.options().image_gap_threshold);
  if (use_image && cursor_.image_file != cmd.image_file) {
    cursor_.mode = RenewMode::kImageFirst;
    cursor_.image_file = cmd.image_file;
    cursor_.image_sn = cmd.image_sn;
    cursor_.image_chunks = 0;
    cursor_.image_bytes.clear();
  } else if (!use_image) {
    cursor_.mode = RenewMode::kJournalOnly;
  }

  if (!progress_timer_) {
    progress_timer_ = std::make_unique<sim::PeriodicTimer>(
        s_.sim(), kRenewProgressInterval, [this] { SendProgress(); });
    progress_timer_->Start();
  }

  if (cursor_.mode == RenewMode::kImageFirst) {
    StartPhase("image_fetch");
    FetchImage(cmd.active_sn);
  } else {
    StartPhase("journal_replay");
    FetchJournal(cmd.active_sn);
  }
}

void Renewal::SendProgress(bool failed) {
  const NodeId active = s_.view().FindActive();
  if (active == kInvalidNode || active == s_.id()) return;
  auto msg = std::make_shared<RenewProgressMsg>();
  msg->current_sn = s_.last_sn();
  msg->failed = failed;
  s_.Send(active, msg);
}

void Renewal::FetchImage(SerialNumber active_sn) {
  // Image records carry their chunk ordinal as sn, so the cursor is the
  // number of chunks assembled. It is the checkpoint the paper describes —
  // "the junior records the checkpoint that has been committed [and] can
  // continue to recover from other replicas in the last position" — and
  // survives the run, so a later run resumes where this one stopped.
  s_.ssp().Drain(
      cursor_.image_file, /*fence=*/0,
      [this] { return cursor_.image_chunks; },
      std::numeric_limits<SerialNumber>::max(),
      [this, run = run_](const storage::SspReadReplyMsg& reply,
                         std::function<void(bool)> next) {
        if (!Renewing(run)) return;
        const SerialNumber before = cursor_.image_chunks;
        for (const auto& rec : reply.records) {
          if (rec.sn != cursor_.image_chunks + 1) continue;
          cursor_.image_bytes.insert(cursor_.image_bytes.end(),
                                     rec.bytes.begin(), rec.bytes.end());
          ++cursor_.image_chunks;
        }
        next(cursor_.image_chunks > before);
      },
      [this, run = run_, active_sn](Status st) {
        if (!Renewing(run)) return;
        if (!st.ok() || cursor_.image_chunks == 0) {
          // Pool unreachable or image gone: fall back to journal replay.
          cursor_.mode = RenewMode::kJournalOnly;
          StartPhase("journal_replay");
          FetchJournal(active_sn);
          return;
        }
        // Whole image streamed: reconstruct the tree in memory. CPU cost
        // scales with the logical image size.
        const SimTime load_cost = s_.ChargeCpu(static_cast<SimTime>(
            static_cast<double>(cursor_.image_bytes.size()) *
            s_.options().image_inflation / 300.0e6 * kSecond));
        s_.AfterLocal(load_cost, [this, run, active_sn] {
          if (!Renewing(run)) return;
          Status st = s_.mutable_tree().LoadImage(cursor_.image_bytes);
          cursor_.image_bytes.clear();
          cursor_.image_bytes.shrink_to_fit();
          if (!st.ok()) {
            MAMS_ERROR("mds", "%s: image load failed: %s", s_.name().c_str(),
                       st.ToString().c_str());
            s_.mutable_tree().Reset();
            s_.SetLastSn(0);
            cursor_.mode = RenewMode::kJournalOnly;
          } else {
            s_.SetLastSn(cursor_.image_sn);
          }
          StartPhase("journal_replay");
          FetchJournal(active_sn);
        });
      });
}

void Renewal::FetchJournal(SerialNumber active_sn) {
  // Drained until the cursor reaches the active's sn at the command; the
  // final sync fetches what the active committed since.
  s_.ssp().Drain(
      s_.JournalFile(), /*fence=*/0, [this] { return s_.last_sn(); },
      active_sn,
      [this, run = run_](const storage::SspReadReplyMsg& reply,
                         std::function<void(bool)> next) {
        if (!Renewing(run)) return;
        const std::uint64_t applied_bytes = s_.ApplyPoolRecords(reply.records);
        // Replay CPU cost: serial apply at 200 MB/s of journal bytes.
        const SimTime cost = s_.ChargeCpu(static_cast<SimTime>(
            static_cast<double>(applied_bytes) / 200.0e6 * kSecond));
        s_.AfterLocal(cost, [this, run, next = std::move(next),
                             advanced = applied_bytes > 0] {
          if (Renewing(run)) next(advanced);
        });
      },
      [this, run = run_](Status st) {
        if (!Renewing(run)) return;
        if (!st.ok()) {
          SendProgress(/*failed=*/true);
          EndRun("ssp_failed");
          return;
        }
        // SSP drained. Under live load the active has moved on; enter the
        // final synchronization stage: fetch the tail directly from the
        // active until the gap is small (Section III.D).
        StartPhase("final_sync");
        FinalSync();
      });
}

void Renewal::FinalSync() {
  const NodeId active = s_.view().FindActive();
  if (active == kInvalidNode || active == s_.id()) {
    // No active right now (mid-failover); progress reports resume the
    // renewal once a new active scans the view.
    EndRun("no_active");
    return;
  }
  // Pull until within the final-sync gap of the active. A fetch that fails
  // ends the run, as does one that applies nothing while still beyond the
  // gap (a stale pool replica left a hole wider than the active's recent
  // window): the failed report makes the active rescan, and a later run
  // drains the pool again.
  s_.CatchUp(
      active,
      [this, run = run_](const RenewJournalReplyMsg& reply) {
        return Renewing(run) && reply.active_sn > s_.last_sn() + kFinalSyncGap;
      },
      [this, run = run_](Result<SerialNumber> active_sn) {
        if (!Renewing(run)) return;
        if (!active_sn.ok() ||
            active_sn.value() > s_.last_sn() + kFinalSyncGap) {
          SendProgress(/*failed=*/true);
          EndRun(active_sn.ok() ? "stalled" : "unreachable");
          return;
        }
        // Close enough: report; the active folds us into live replication
        // and flips our state to standby.
        EndRun("caught_up");
        SendProgress();
      });
}

void Renewal::StartPhase(std::string phase) {
  auto& tracer = s_.sim().obs().tracer();
  tracer.End(phase_span_);
  phase_span_ = tracer.Begin("renew", std::move(phase), s_.id(), s_.group());
}

void Renewal::EndRun(const char* outcome) {
  running_ = false;
  auto& tracer = s_.sim().obs().tracer();
  tracer.End(phase_span_);
  tracer.End(span_, {{"outcome", std::string(outcome)},
                     {"sn", static_cast<std::uint64_t>(s_.last_sn())}});
}

void Renewal::EndSpans() {
  EndRun("crashed");
  s_.sim().obs().tracer().End(checkpoint_span_, {{"ok", "crashed"}});
}

}  // namespace mams::core
