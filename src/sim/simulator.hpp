// The deterministic discrete-event simulator every other module runs on.
//
// A Simulator owns the virtual clock and the event queue. Protocol code
// never sleeps or reads wall time; it schedules continuations:
//
//   sim.After(2 * kSecond, [&] { SendHeartbeat(); });
//
// Determinism contract: given the same seed and the same schedule of calls,
// a run produces the identical event order (FIFO tie-break at equal
// timestamps), so every figure in EXPERIMENTS.md is exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/observability.hpp"
#include "sim/event_queue.hpp"

namespace mams::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1)
      : rng_(seed),
        prev_log_clock_(Logger::Instance().time_source()),
        obs_(&now_) {
    Logger::Instance().set_time_source(&now_);
  }
  // Restore whatever clock the logger used before this simulator existed,
  // so a nested or sequential-in-scope Simulator being destroyed cannot
  // blank the outer one's timestamps.
  ~Simulator() { Logger::Instance().set_time_source(prev_log_clock_); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const noexcept { return now_; }
  Rng& rng() noexcept { return rng_; }

  /// Order-sensitive digest of every event executed so far (an FNV-1a fold
  /// of execution timestamps). Two runs of the same schedule produce the
  /// same digest; any divergence in event order or timing changes it. The
  /// replay tooling (tools/mams_check --replay) runs a captured schedule
  /// twice and compares digests to prove the reproduction deterministic.
  std::uint64_t run_digest() const noexcept { return digest_; }

  /// Tracing, metrics, and invariant probes scoped to this simulation.
  obs::Observability& obs() noexcept { return obs_; }
  const obs::Observability& obs() const noexcept { return obs_; }

  /// Schedules `fn` after a (non-negative) delay.
  EventHandle After(SimTime delay, EventFn fn) {
    return queue_.Schedule(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to now).
  EventHandle At(SimTime when, EventFn fn) {
    return queue_.Schedule(when < now_ ? now_ : when, std::move(fn));
  }

  /// Runs events until the queue drains or `deadline` is passed. Events at
  /// exactly `deadline` still run. Returns the number of events executed.
  std::uint64_t RunUntil(SimTime deadline) {
    std::uint64_t executed = 0;
    while (!queue_.empty() && queue_.NextTime() <= deadline) {
      auto ev = queue_.Pop();
      now_ = ev.at;
      Fold(ev.at);
      ev.fn();
      ++executed;
    }
    if (now_ < deadline) now_ = deadline;
    return executed;
  }

  /// Runs until the event queue is empty. Unlike RunUntil, the clock ends
  /// at the last executed event, not at an artificial deadline.
  std::uint64_t RunAll() {
    std::uint64_t executed = 0;
    while (!queue_.empty()) {
      auto ev = queue_.Pop();
      now_ = ev.at;
      Fold(ev.at);
      ev.fn();
      ++executed;
    }
    return executed;
  }

  /// Runs a single event if one is pending; returns false when drained.
  bool Step() {
    if (queue_.empty()) return false;
    auto ev = queue_.Pop();
    now_ = ev.at;
    Fold(ev.at);
    ev.fn();
    return true;
  }

  bool idle() { return queue_.empty(); }

 private:
  void Fold(SimTime at) noexcept {
    digest_ = (digest_ ^ static_cast<std::uint64_t>(at)) * 0x100000001b3ull;
  }

  SimTime now_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  Rng rng_;
  const SimTime* prev_log_clock_ = nullptr;
  obs::Observability obs_;
  /// Declared after obs_, so pending events (and the messages they carry)
  /// are destroyed while the metrics they may update still exist.
  EventQueue queue_;
};

/// Convenience: a repeating timer that reschedules itself until cancelled.
/// Used for heartbeats, block reports, and periodic scans. The callback may
/// call Stop() on the timer.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimTime period, EventFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}

  ~PeriodicTimer() { Stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start() {
    running_ = true;
    Arm();
  }

  void Stop() {
    running_ = false;
    handle_.Cancel();
  }

  bool running() const noexcept { return running_; }
  SimTime period() const noexcept { return period_; }

 private:
  void Arm() {
    handle_ = sim_.After(period_, [this] {
      if (!running_) return;
      fn_();
      if (running_) Arm();
    });
  }

  Simulator& sim_;
  const SimTime period_;
  EventFn fn_;
  EventHandle handle_;
  bool running_ = false;
};

}  // namespace mams::sim
