// Base class for a simulated OS process (metadata server, data server,
// coordination replica, client driver...). Captures the crash/restart
// lifecycle the fault-injection experiments exercise:
//
//   * Crash()   — the process vanishes instantly: timers stop, in-flight
//                 messages addressed to it are dropped, volatile state is
//                 lost (subclasses override OnCrash to discard it).
//   * Restart() — the process boots again after a configurable boot delay,
//                 recovering whatever its durable storage retained
//                 (subclasses override OnRestart).
//
// An "incarnation" counter distinguishes a restarted process from its
// previous life; late continuations scheduled by the previous incarnation
// check the epoch and turn into no-ops.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace mams::sim {

class Process {
 public:
  Process(Simulator& sim, std::string name)
      : sim_(sim), name_(std::move(name)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Simulator& sim() noexcept { return sim_; }
  const Simulator& sim() const noexcept { return sim_; }
  const std::string& name() const noexcept { return name_; }
  bool alive() const noexcept { return alive_; }
  std::uint64_t incarnation() const noexcept { return incarnation_; }

  /// Kills the process immediately (power loss / kill -9 semantics).
  void Crash() {
    if (!alive_) return;
    alive_ = false;
    ++incarnation_;  // invalidates continuations of the old life
    OnCrash();
  }

  /// Boots the process again after `boot_delay` of virtual time.
  void Restart(SimTime boot_delay = 0) {
    if (alive_) return;
    const std::uint64_t my_inc = incarnation_;
    sim_.After(boot_delay, [this, my_inc] {
      if (alive_ || incarnation_ != my_inc) return;
      alive_ = true;
      OnRestart();
    });
  }

  /// Starts the process for the first time.
  void Boot() {
    if (alive_) return;
    alive_ = true;
    OnStart();
  }

  /// Schedules a continuation that silently dies if this process crashes
  /// (or restarts) before it fires. Protocol code should use this instead
  /// of sim().After for anything touching volatile state.
  EventHandle AfterLocal(SimTime delay, EventFn fn) {
    const std::uint64_t my_inc = incarnation_;
    return sim_.After(delay, [this, my_inc, fn = std::move(fn)] {
      if (alive_ && incarnation_ == my_inc) fn();
    });
  }

 protected:
  virtual void OnStart() {}
  virtual void OnCrash() {}
  virtual void OnRestart() { OnStart(); }

 private:
  Simulator& sim_;
  std::string name_;
  bool alive_ = false;
  std::uint64_t incarnation_ = 0;
};

}  // namespace mams::sim
