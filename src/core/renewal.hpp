// Renewal — the renewing protocol of Section III.D and the image
// checkpoints juniors start from. Rebuilt with its server on a crash.
//
// Active side: a scan sends one junior a renew command; its progress report
// near the live stream folds it into replication and promotes it. The scan
// and checkpoint timers run only while active (Lead); the junior being
// renewed and the latest image outlive a step-down.
//
// Junior side: a run goes image first when far behind, then the SSP
// journal, then a final sync against the active. The cursor survives active
// failures, so a later run resumes the image stream where it stopped. Each
// run has an id, and every continuation carries the id of the run that
// issued it: it goes on only while that run is on and the server is still
// a junior (Renewing). A junior elected active keeps its run marked.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace mams::core {

class MdsServer;

class Renewal {
 public:
  explicit Renewal(MdsServer& server) : s_(server) {}
  Renewal(const Renewal&) = delete;
  Renewal& operator=(const Renewal&) = delete;

  /// Runs (active) or stops the renew-scan and checkpoint timers.
  void Lead(bool active);
  void Scan();
  void HandleProgress(const net::Envelope& env, const net::MessagePtr& msg);
  void WriteCheckpoint();

  void HandleCommand(const net::MessagePtr& msg);
  /// The view promoted this junior: end the run and stop reporting.
  void Promoted() {
    if (running_) EndRun("promoted");
    progress_timer_.reset();
  }
  /// The namespace was discarded: the cursor and the run go with it.
  void ForgetCursor() {
    cursor_ = Cursor{};
    running_ = false;
  }
  /// Crash: closes the renew and checkpoint spans still open.
  void EndSpans();

 private:
  /// One image being written to the SSP, shared by its chunk callbacks.
  struct CheckpointWrite {
    std::string file;
    SerialNumber sn = 0;
    std::vector<char> bytes;
    std::uint64_t logical = 0;  ///< bytes × image_inflation
    std::size_t chunks = 1;
  };
  struct Cursor {
    RenewMode mode = RenewMode::kJournalOnly;
    std::string image_file;
    SerialNumber image_sn = 0;
    SerialNumber image_chunks = 0;  ///< chunks 1..n of the image assembled
    std::vector<char> image_bytes;
  };

  /// Appends chunk `i` of `write`; the append's completion writes the next.
  void WriteCheckpointChunk(std::shared_ptr<const CheckpointWrite> write,
                            std::size_t i);
  /// A junior-side continuation's liveness check: run `run` is still the
  /// current one. A late reply of an ended run finds a newer id, or no run
  /// at all, and drops.
  bool Renewing(std::uint64_t run) const;
  /// The run's phases; `active_sn` is the active's sn at the command.
  void FetchImage(SerialNumber active_sn);
  void FetchJournal(SerialNumber active_sn);
  void FinalSync();
  void SendProgress(bool failed = false);
  void StartPhase(std::string phase);
  void EndRun(const char* outcome);

  MdsServer& s_;
  std::unique_ptr<sim::PeriodicTimer> scan_timer_;
  std::unique_ptr<sim::PeriodicTimer> checkpoint_timer_;
  NodeId target_ = kInvalidNode;  ///< the junior being renewed
  std::optional<std::pair<std::string, SerialNumber>> latest_image_;
  obs::TraceRecorder::Span checkpoint_span_;
  Cursor cursor_;
  bool running_ = false;  ///< from a renew command until the run ends
  std::uint64_t run_ = 0;  ///< id of the latest run; bumped as one starts
  std::unique_ptr<sim::PeriodicTimer> progress_timer_;
  obs::TraceRecorder::Span span_;
  obs::TraceRecorder::Span phase_span_;
};

}  // namespace mams::core
