// Chaos property tests: random link flaps, crash/restart storms, and pool
// failures — after the dust settles the group must converge to exactly one
// active with consistent replicas, and no acknowledged operation may be
// lost. These are the strongest end-to-end guarantees the MAMS design
// claims (Sections III.C/III.D).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::cluster {
namespace {

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, LinkFlapStormConvergesWithoutLoss) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim(seed);
  net::Network net(sim);
  CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  Rng rng(seed ^ 0xc0ffee);
  std::vector<std::string> acked;
  int next = 0;

  auto write_some = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::string path = "/chaos/f" + std::to_string(next++);
      Status st = Status::TimedOut("pending");
      bool done = false;
      cfs.client(0).Create(path, [&](Status s) {
        st = s;
        done = true;
      });
      testutil::WaitFor(sim, [&] { return done; }, 90 * kSecond);
      if (done && st.ok()) acked.push_back(path);
    }
  };

  write_some(5);
  // Storm: random MDS links flap for a while. The coordination service and
  // pool stay reachable from at least some members, so the group can keep
  // electing; we only require eventual convergence after healing.
  std::vector<NodeId> mds_ids;
  for (std::size_t m = 0; m < cfs.group_size(0); ++m) {
    mds_ids.push_back(cfs.mds(0, static_cast<int>(m)).id());
  }
  for (int round = 0; round < 4; ++round) {
    const NodeId victim = mds_ids[rng.Below(mds_ids.size())];
    cfs.faults().Unplug(victim);
    sim.RunUntil(sim.Now() + static_cast<SimTime>(
                                 rng.Range(2, 8)) * kSecond);
    cfs.faults().Replug(victim);
    sim.RunUntil(sim.Now() + static_cast<SimTime>(
                                 rng.Range(1, 4)) * kSecond);
    write_some(2);
  }

  // Heal everything and let the renewing protocol finish.
  cfs.faults().Heal();
  sim.RunUntil(sim.Now() + 40 * kSecond);

  // Convergence: exactly one live active holding the lock.
  int actives = 0;
  core::MdsServer* active = nullptr;
  for (std::size_t m = 0; m < cfs.group_size(0); ++m) {
    auto& mds = cfs.mds(0, static_cast<int>(m));
    if (mds.alive() && mds.role() == ServerState::kActive) {
      ++actives;
      active = &mds;
    }
  }
  ASSERT_EQ(actives, 1) << "seed " << seed;
  EXPECT_EQ(cfs.coord().frontend().PeekView(0).lock_holder, active->id());

  // No acknowledged op lost.
  for (const auto& path : acked) {
    EXPECT_TRUE(active->tree().Exists(path)) << path << " seed " << seed;
  }

  // Every live standby converged to the active's namespace.
  ASSERT_EQ(cfs.FindActive(0), active) << "seed " << seed;
  for (const core::MdsServer* mds : cfs.DivergedStandbys(0)) {
    ADD_FAILURE() << mds->name() << " diverged from the active, seed "
                  << seed;
  }

  // The cluster's invariant probes watched every view/role flip during the
  // storm; none may have fired (single active, monotone fences and sns,
  // no committed-sn regression).
  const auto& probes = sim.obs().probes();
  EXPECT_GT(probes.evaluations(), 0u) << "probes never ran";
  EXPECT_EQ(probes.violation_count(), 0u)
      << "seed " << seed << "; first: "
      << (probes.violations().empty() ? std::string("<none>")
                                      : probes.violations()[0].probe + ": " +
                                            probes.violations()[0].detail);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(7001, 7002, 7003, 7004));

class PoolChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolChaosTest, PoolNodeFailuresDontBlockRenewal) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim(seed);
  net::Network net(sim);
  CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  // Write history, then kill a pool node (one SSP replica of the journal).
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    cfs.client(0).Create("/p/f" + std::to_string(i),
                         [&](Status) { done = true; });
    ASSERT_TRUE(testutil::WaitFor(sim, [&] { return done; }, 30 * kSecond,
                                  50 * kMillisecond));
  }
  cfs.faults().Crash(cfs.pool_node(static_cast<int>(seed % 3)));

  // Restart a standby; its renewal must still complete via the surviving
  // SSP replica (reads fail over) or the active's direct journal fetch.
  auto& victim = cfs.mds(0, 1);
  cfs.faults().Crash(victim, kSecond);
  sim.RunUntil(sim.Now() + 60 * kSecond);
  EXPECT_EQ(victim.role(), ServerState::kStandby) << "seed " << seed;
  EXPECT_EQ(victim.tree().Fingerprint(),
            cfs.FindActive(0)->tree().Fingerprint());
  EXPECT_EQ(sim.obs().probes().violation_count(), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolChaosTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mams::cluster
