// The fault layer's rules: timed cuts restore themselves unless a later
// fault supersedes them, Heal() undoes everything the layer injected and
// boots each dead process once, and crashing a dead process is a no-op.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mams::cluster {
namespace {

class FaultsTest : public ::testing::Test {
 protected:
  FaultsTest() : sim_(11), net_(sim_) {
    CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 2;
    cfg.clients = 1;
    cfg.data_servers = 1;
    cfs_ = std::make_unique<CfsCluster>(net_, cfg);
    cfs_->Start();
    Run(2 * kSecond);
  }

  void Run(SimTime dt) { sim_.RunUntil(sim_.Now() + dt); }
  Faults& faults() { return cfs_->faults(); }
  NodeId Member(int m) { return cfs_->mds(0, m).id(); }
  /// Whether the node's cable is in (loopback is up iff the link is).
  bool Plugged(NodeId node) const { return net_.Connected(node, node); }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<CfsCluster> cfs_;
};

TEST_F(FaultsTest, TimedUnplugRestoresItself) {
  const NodeId node = Member(1);
  faults().Unplug(node, 5 * kSecond);
  EXPECT_FALSE(Plugged(node));
  Run(4 * kSecond);
  EXPECT_FALSE(Plugged(node));
  Run(2 * kSecond);
  EXPECT_TRUE(Plugged(node));
}

TEST_F(FaultsTest, SecondUnplugSupersedesTheFirstRestore) {
  const NodeId node = Member(1);
  faults().Unplug(node, 5 * kSecond);
  Run(2 * kSecond);
  faults().Unplug(node, 10 * kSecond);
  Run(4 * kSecond);  // past the first cut's restore
  EXPECT_FALSE(Plugged(node));
  Run(7 * kSecond);  // past the second cut's
  EXPECT_TRUE(Plugged(node));
}

TEST_F(FaultsTest, ReplugMakesAPendingRestoreANoOp) {
  const NodeId node = Member(1);
  faults().Unplug(node, 5 * kSecond);
  Run(kSecond);
  faults().Replug(node);
  EXPECT_TRUE(Plugged(node));
  Run(kSecond);
  faults().Unplug(node);
  Run(5 * kSecond);  // the first cut's restore came and went
  EXPECT_FALSE(Plugged(node));
}

TEST_F(FaultsTest, HealMakesAPendingRestoreANoOp) {
  const NodeId node = Member(1);
  faults().Unplug(node, 5 * kSecond);
  Run(kSecond);
  faults().Heal();
  EXPECT_TRUE(Plugged(node));
  Run(kSecond);
  faults().Unplug(node);
  Run(5 * kSecond);
  EXPECT_FALSE(Plugged(node));
}

TEST_F(FaultsTest, HealUndoesEveryFaultAndBootsEachDeadProcessOnce) {
  sim_.obs().tracer().set_enabled(true);
  const NodeId deaf = Member(1);
  const NodeId mute = Member(2);
  const NodeId coord = cfs_->coord().frontend_id();
  faults().CutHalf(deaf, Faults::Half::kIn);
  faults().CutHalf(mute, Faults::Half::kOut);
  faults().Jitter(5 * kMillisecond, 100 * kSecond);
  storage::PoolNode& slow = cfs_->pool_node(0, 0);
  faults().SlowDisk(slow, 4.0);
  EXPECT_FALSE(net_.Connected(coord, deaf));
  EXPECT_FALSE(net_.Connected(mute, coord));
  EXPECT_EQ(net_.extra_jitter(), 5 * kMillisecond);
  EXPECT_EQ(slow.disk_slowdown(), 4.0);

  // One member and one pool node with a restart pending, one of each
  // without.
  core::MdsServer& pending = cfs_->mds(0, 1);
  core::MdsServer& down = cfs_->mds(0, 2);
  storage::PoolNode& pending_pool = cfs_->pool_node(0, 1);
  storage::PoolNode& down_pool = cfs_->pool_node(0, 2);
  faults().Crash(pending, 30 * kSecond);
  faults().Crash(down);
  faults().Crash(pending_pool, 30 * kSecond);
  faults().Crash(down_pool);

  faults().Heal();
  EXPECT_TRUE(net_.Connected(coord, deaf));
  EXPECT_TRUE(net_.Connected(deaf, coord));
  EXPECT_TRUE(net_.Connected(coord, mute));
  EXPECT_TRUE(net_.Connected(mute, coord));
  EXPECT_EQ(net_.extra_jitter(), 0);
  EXPECT_EQ(slow.disk_slowdown(), 1.0);
  Run(kSecond);
  EXPECT_TRUE(pending.alive());
  EXPECT_TRUE(down.alive());
  EXPECT_TRUE(pending_pool.alive());
  EXPECT_TRUE(down_pool.alive());

  // The pending restarts fire into live processes and do nothing: each
  // member rejoined as a junior exactly once.
  Run(40 * kSecond);
  for (const core::MdsServer* mds : {&pending, &down}) {
    EXPECT_TRUE(mds->alive());
    int rejoins = 0;
    for (const auto& ev : sim_.obs().tracer().instants()) {
      if (ev.name != "role_change" || ev.node != mds->id()) continue;
      for (const auto& arg : ev.args) {
        if (arg.key == "role" && arg.value == "junior") ++rejoins;
      }
    }
    EXPECT_EQ(rejoins, 1) << mds->name();
  }
  EXPECT_TRUE(pending_pool.alive());
  EXPECT_TRUE(down_pool.alive());
}

TEST_F(FaultsTest, CrashingADeadProcessSchedulesNoSecondRestart) {
  core::MdsServer& victim = cfs_->mds(0, 1);
  faults().Crash(victim, 10 * kSecond);
  faults().Crash(victim, kSecond);
  Run(2 * kSecond);
  EXPECT_FALSE(victim.alive());
  Run(9 * kSecond);
  EXPECT_TRUE(victim.alive());
}

TEST_F(FaultsTest, CrashActiveReturnsTheVictim) {
  core::MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(faults().CrashActive(0), active);
  EXPECT_FALSE(active->alive());
}

}  // namespace
}  // namespace mams::cluster
