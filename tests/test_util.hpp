// Shared test helpers: simulator polling and client-mutation records.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "journal/record.hpp"
#include "sim/simulator.hpp"

namespace mams::testutil {

/// Pumps the simulator in `step`-sized slices until `pred()` holds or
/// `budget` of virtual time elapses. Returns whether the predicate held.
/// Replaces the fixed-iteration polling loops tests used to hand-roll:
/// the deadline is explicit virtual time, not an iteration count whose
/// meaning silently changes with the step size.
template <typename Pred>
bool WaitFor(sim::Simulator& sim, Pred&& pred, SimTime budget,
             SimTime step = 100 * kMillisecond) {
  const SimTime deadline = sim.Now() + budget;
  while (!pred()) {
    if (sim.Now() >= deadline) return false;
    sim.RunUntil(std::min(deadline, sim.Now() + step));
  }
  return true;
}

/// The journal record a client mutation executes as (servers build it with
/// core::RecordFor): `path2` is the rename destination or the owner, and
/// `replication` the replication factor or the permission bits.
inline journal::LogRecord Rec(journal::OpCode op, std::string path,
                              SimTime mtime, ClientOpId client,
                              std::string path2 = {},
                              std::uint32_t replication = 1) {
  journal::LogRecord rec;
  rec.op = op;
  rec.path = std::move(path);
  rec.path2 = std::move(path2);
  rec.replication = replication;
  rec.mtime = mtime;
  rec.client = client;
  return rec;
}

}  // namespace mams::testutil
