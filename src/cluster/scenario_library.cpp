#include "cluster/scenario_library.hpp"

namespace mams::cluster {

namespace {

// Script notes:
//  * `cluster ... seed=$SEED` makes the whole run (timers, jitter, RNG)
//    a function of the sweep seed.
//  * flash_* times are absolute virtual time (the load engine's arrival
//    curve is evaluated against the simulator clock).
//  * Every script ends with expect-probes-clean: no scenario may trade a
//    safety invariant for liveness.

const char* kFlashCrowd = R"(# Flash crowd on group 0; group 1 stays cold.
cluster groups=2 standbys=1 juniors=1 clients=4 seed=$SEED standby_reads=1
run 2s
load open rate=250 flash_mult=8 flash_start=5s flash_len=20s create=0.1 hot_group=0 hot_weight=15 ops=6
run 3s
# Grow the hot group by hand inside the flash window: admit a new member,
# wait for it to register as a junior, and have the active renew it into a
# standby now rather than on its next scan.
add-standby 0
expect-counts 0 J=1
promote 0
run 9s
# The boot junior and the admitted member both serve as standbys.
expect-standbys 0 2 3
load stop
run 2s
expect-active 0
expect-active 1
expect-probes-clean
)";

const char* kRollingUpgrade = R"(# Rolling upgrade: bounce every member, active last.
cluster groups=1 standbys=2 clients=2 seed=$SEED
run 2s
mkdir /data
create /data/f0
crash 0 2
run 1s
restart 0 2
run 8s
expect-counts 0 A=1 S=2
crash 0 1
run 1s
restart 0 1
run 8s
expect-counts 0 A=1 S=2
crash-active 0
run 1s
restart 0 0
run 12s
expect-active 0
expect-counts 0 A=1 S=2
expect-exists /data/f0
expect-converged 0
expect-ops-ok
expect-probes-clean
)";

const char* kRackFailure = R"(# Correlated rack failure: member 1 of every group and its
# co-hosted pool node die in the same instant.
cluster groups=2 standbys=2 clients=2 seed=$SEED
run 2s
mkdir /a
create /a/f1
crash 0 1
crash 1 1
crash-pool 0 1
crash-pool 1 1
run 2s
create /a/f2
run 8s
expect-active 0
expect-active 1
restart 0 1
restart 1 1
restart-pool 0 1
restart-pool 1 1
run 15s
expect-counts 0 A=1 S=2
expect-counts 1 A=1 S=2
expect-exists /a/f1
expect-exists /a/f2
expect-converged 0
expect-converged 1
expect-probes-clean
)";

const char* kSlowDisk = R"(# Gray failure: the active's co-hosted pool node serves 50x slower
# but never crashes — the failure mode heartbeats cannot see. The
# replicated SSP (first-ack append) must carry writes regardless.
cluster groups=1 standbys=2 clients=2 seed=$SEED
run 2s
mkdir /d
slow-disk 0 0 50
create /d/f1
create /d/f2
stat /d/f1
run 5s
expect-ops-ok
expect-active 0
slow-disk 0 0 off
run 2s
expect-converged 0
expect-probes-clean
)";

const char* kAsymmetry = R"(# Network asymmetry: the active's transmit half dies. It still hears
# heartbeats and client traffic but cannot answer or renew its session,
# so the coordinator must fail it over and fence it out.
cluster groups=1 standbys=2 clients=2 seed=$SEED
run 2s
mkdir /x
create /x/f1
asymmetry 0 0 out
run 10s
expect-active 0
create /x/f2
run 2s
asymmetry 0 0 off
run 12s
expect-counts 0 A=1 S=2
expect-exists /x/f1
expect-exists /x/f2
expect-converged 0
expect-probes-clean
)";

}  // namespace

const std::vector<NamedScenario>& ScenarioLibrary() {
  static const std::vector<NamedScenario> library = {
      {"flash_crowd",
       "flash crowd on one group; it grows by hand, cold group stays",
       kFlashCrowd},
      {"rolling_upgrade",
       "restart every member sequentially, active last; no data loss",
       kRollingUpgrade},
      {"rack_failure",
       "correlated loss of one member + pool node in every group",
       kRackFailure},
      {"slow_disk",
       "one pool node 50x slower (never down); ops keep succeeding",
       kSlowDisk},
      {"asymmetry",
       "active loses its transmit half; failover fences it out",
       kAsymmetry},
  };
  return library;
}

const NamedScenario* FindScenario(const std::string& name) {
  for (const NamedScenario& s : ScenarioLibrary()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string InstantiateScenario(const NamedScenario& scenario,
                                std::uint64_t seed) {
  std::string script = scenario.script;
  const std::string token = "$SEED";
  const std::string value = std::to_string(seed);
  std::size_t pos = 0;
  while ((pos = script.find(token, pos)) != std::string::npos) {
    script.replace(pos, token.size(), value);
    pos += value.size();
  }
  return script;
}

Status RunNamedScenario(const std::string& name, std::uint64_t seed,
                        ScenarioRunnerOptions options,
                        std::vector<std::string>* failures) {
  const NamedScenario* scenario = FindScenario(name);
  if (scenario == nullptr) {
    std::string known;
    for (const NamedScenario& s : ScenarioLibrary()) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    return Status::NotFound("no scenario named " + name + " (have: " + known +
                            ")");
  }
  ScenarioRunner runner(options);
  Status s = runner.Run(InstantiateScenario(*scenario, seed));
  if (failures != nullptr) *failures = runner.failures();
  return s;
}

}  // namespace mams::cluster
