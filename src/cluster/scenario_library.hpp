// Named scenario library — curated failure drills beyond the paper's
// Table II, each expressed in the scenario language with explicit
// pass/fail invariants, parameterized only by the seed ($SEED in the
// script text). The library is the unit the nightly sweep iterates:
// every scenario must hold its invariants across any seed.
//
//   flash_crowd     — open-loop flash crowd slams one group; it grows by
//                     one standby under load while the cold group stays put.
//   rolling_upgrade — restart every member one at a time, active last;
//                     no data loss, full strength after each step.
//   rack_failure    — correlated loss of one member + its co-hosted pool
//                     node in every group at once.
//   slow_disk       — gray failure: one pool node 50x slower, never down;
//                     ops keep succeeding via the replicated SSP.
//   asymmetry       — the active's transmit half dies while it still
//                     hears the world; failover fences it out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/scenario.hpp"

namespace mams::cluster {

struct NamedScenario {
  std::string name;   ///< stable id, e.g. "flash_crowd"
  std::string title;  ///< one-line description for listings
  std::string script; ///< scenario-language text; "$SEED" is substituted
};

/// All library scenarios, in a stable order.
const std::vector<NamedScenario>& ScenarioLibrary();

/// Looks a scenario up by name; null when unknown.
const NamedScenario* FindScenario(const std::string& name);

/// The scenario's script with every "$SEED" replaced by `seed`.
std::string InstantiateScenario(const NamedScenario& scenario,
                                std::uint64_t seed);

/// Convenience: builds a runner (with the elastic command pack), runs the
/// named scenario at `seed`, and returns the overall status. When
/// `failures` is non-null it receives the collected expectation failures.
Status RunNamedScenario(const std::string& name, std::uint64_t seed,
                        ScenarioRunnerOptions options = {},
                        std::vector<std::string>* failures = nullptr);

}  // namespace mams::cluster
