// Tests for the junior side of the renewing protocol (§III.D) against a
// shared storage pool whose replicas disagree. An SSP append acks on the
// first replica, so a pool node that was down while the group committed
// comes back with a hole the other replica fills; the junior's drain must
// read past it, and a final sync that cannot close the gap must end its
// run so a later one can. A final sync whose active dies ends its run too,
// so the next active can renew the junior.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::cluster {
namespace {

class RenewalTest : public ::testing::Test {
 protected:
  /// More batches than the active's recent window holds, so a junior that
  /// misses them cannot fetch them from the active in its final sync.
  static constexpr int kMissedBatches = 2300;
  static constexpr int kMembers = 3;

  RenewalTest() {
    sim_ = std::make_unique<sim::Simulator>(7);
    net_ = std::make_unique<net::Network>(*sim_);
    CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = kMembers - 1;
    cfg.data_servers = 1;
    cfg.clients = 1;
    // No checkpoint image lands mid-test: the junior renews from the
    // journal alone.
    cfg.mds.checkpoint_interval = 3600 * kSecond;
    cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
    cluster_->Start();
    sim_->obs().tracer().set_enabled(true);
    sim_->RunUntil(sim_->Now() + kSecond);
    active_ = cluster_->FindActive(0);
  }

  /// Pool node `i` of the group journal's placement. The cluster hosts one
  /// pool node per member.
  storage::PoolNode& JournalReplica(std::size_t i) {
    const NodeId id =
        active_->ssp().Placement(active_->JournalFile()).at(i);
    int p = 0;
    while (p + 1 < kMembers && cluster_->pool_node(p).id() != id) ++p;
    EXPECT_EQ(cluster_->pool_node(p).id(), id);
    return cluster_->pool_node(p);
  }

  /// Commits `n` one-record batches: each create starts after the last
  /// one's reply.
  void CreateSequentially(int n) {
    int created = 0;
    std::function<void(Status)> next = [&](Status) {
      if (++created < n) {
        cluster_->client(0).Create("/f" + std::to_string(created), next);
      }
    };
    cluster_->client(0).Create("/f0", next);
    ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return created == n; },
                                  120 * kSecond, 10 * kMillisecond));
    ASSERT_GE(active_->last_sn(), static_cast<SerialNumber>(n));
  }

  /// Crashes a standby and restarts it: it comes back as a junior holding
  /// nothing.
  core::MdsServer& RestartAStandby() {
    for (const auto& member : cluster_->Members(0)) {
      if (member.role != ServerState::kStandby) continue;
      member.server->Crash();
      member.server->Restart();
      return *member.server;
    }
    ADD_FAILURE() << "no standby to restart";
    return *active_;
  }

  /// How many of `node`'s renewing runs ended with `outcome`.
  int RunsEnded(NodeId node, const std::string& outcome) {
    int n = 0;
    for (const auto& span : sim_->obs().tracer().spans()) {
      if (span.name != "renewing" || span.node != node) continue;
      for (const auto& arg : span.args) {
        n += arg.key == "outcome" && arg.value == outcome ? 1 : 0;
      }
    }
    return n;
  }

  /// Creates files one after another until StopLoad.
  void StartLoad() {
    next_create_ = [this](Status) {
      if (loading_) {
        cluster_->client(0).Create("/g" + std::to_string(created_++),
                                   next_create_);
      }
    };
    loading_ = true;
    next_create_(Status::Ok());
  }
  void StopLoad() { loading_ = false; }

  bool BecomesStandby(core::MdsServer& junior, SimTime budget) {
    return testutil::WaitFor(
        *sim_, [&] { return junior.role() == ServerState::kStandby; },
        budget);
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
  core::MdsServer* active_ = nullptr;
  bool loading_ = false;
  int created_ = 0;
  std::function<void(Status)> next_create_;
};

TEST_F(RenewalTest, JuniorRenewsPastAStaleFirstPoolReplica) {
  ASSERT_NE(active_, nullptr);
  storage::PoolNode& stale = JournalReplica(0);
  stale.Crash();
  CreateSequentially(kMissedBatches);
  stale.Restart();

  // The first replica answers with its hole; the second holds the batches
  // the active's recent window no longer does.
  core::MdsServer& junior = RestartAStandby();
  ASSERT_TRUE(BecomesStandby(junior, 60 * kSecond))
      << "junior stuck at sn " << junior.last_sn() << ", active at "
      << active_->last_sn();
  EXPECT_EQ(junior.tree().Fingerprint(), active_->tree().Fingerprint());
}

TEST_F(RenewalTest, FinalSyncThatAppliesNothingEndsTheRun) {
  ASSERT_NE(active_, nullptr);
  storage::PoolNode& stale = JournalReplica(0);
  storage::PoolNode& holder = JournalReplica(1);
  stale.Crash();
  CreateSequentially(kMissedBatches);
  stale.Restart();
  holder.Crash();

  // Every run drains only the stale replica, and its final sync cannot
  // reach the missed batches: the run ends and the active rescans.
  core::MdsServer& junior = RestartAStandby();
  sim_->RunUntil(sim_->Now() + 20 * kSecond);
  ASSERT_EQ(junior.role(), ServerState::kJunior);
  ASSERT_LT(junior.last_sn(), active_->last_sn());
  EXPECT_GE(RunsEnded(junior.id(), "stalled"), 1);

  // Once the holder is back, a later run drains it and renews.
  holder.Restart();
  ASSERT_TRUE(BecomesStandby(junior, 60 * kSecond))
      << "junior stuck at sn " << junior.last_sn() << ", active at "
      << active_->last_sn();
  EXPECT_EQ(junior.tree().Fingerprint(), active_->tree().Fingerprint());
}

TEST_F(RenewalTest, JuniorRenewsAfterItsFinalSyncActiveDies) {
  ASSERT_NE(active_, nullptr);
  // The junior's drain waits out a read timeout on the down replica, so
  // its final sync starts thousands of batches behind the loaded active.
  storage::PoolNode& down = JournalReplica(1);
  down.Crash();
  StartLoad();
  core::MdsServer& junior = RestartAStandby();

  // The active dies for good as the junior's first final-sync fetch is on
  // the wire, before it can answer.
  auto* fetches =
      sim_->obs().metrics().counter("net.sent.renew_journal_fetch");
  const std::uint64_t before = fetches->value;
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return fetches->value > before; }, 60 * kSecond,
      20 * kMicrosecond));
  ASSERT_EQ(junior.role(), ServerState::kJunior);
  const SerialNumber lost_active_sn = active_->last_sn();
  active_->Crash();
  StopLoad();
  down.Restart();

  // The failed fetch ends the run, so the next active's renew command
  // starts a new one.
  ASSERT_TRUE(BecomesStandby(junior, 30 * kSecond))
      << "junior stuck at sn " << junior.last_sn()
      << ", the active died at " << lost_active_sn;
  core::MdsServer* next = cluster_->FindActive(0);
  ASSERT_NE(next, nullptr);
  EXPECT_NE(next, active_);
  EXPECT_EQ(junior.tree().Fingerprint(), next->tree().Fingerprint());
}

}  // namespace
}  // namespace mams::cluster
