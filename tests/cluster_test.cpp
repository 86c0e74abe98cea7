// Integration tests for the full MAMS stack: a CFS cluster with a
// coordination ensemble, replica groups, SSP, data servers and clients.
// These exercise the paper's protocols end to end: normal operation,
// active failure + election + failover, junior renewing, fencing, client
// transparent retry, and multi-failure scenarios (Table II).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "core/failover_trace.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void Build(GroupId groups, int standbys, std::uint64_t seed = 7,
             int juniors = 0,
             const std::function<void(CfsConfig&)>& tweak = {}) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    CfsConfig cfg;
    cfg.groups = groups;
    cfg.standbys_per_group = standbys;
    cfg.juniors_per_group = juniors;
    cfg.data_servers = 2;
    cfg.clients = 2;
    if (tweak) tweak(cfg);
    cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
    cluster_->Start();
    // Let the deployment settle (registrations, lock grant, watches).
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

  /// Creates a file and waits synchronously for its outcome.
  Status CreateFile(const std::string& path, int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Status MkdirSync(const std::string& path, int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Mkdir(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Status RenameSync(const std::string& src, const std::string& dst,
                    int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Rename(src, dst, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Result<fsns::FileInfo> StatSync(const std::string& path, int client = 0) {
    Result<fsns::FileInfo> out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).GetFileInfo(path, [&](Result<fsns::FileInfo> r) {
      out = std::move(r);
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Result<std::vector<std::string>> ListSync(const std::string& path,
                                            int client = 0) {
    Result<std::vector<std::string>> out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).ListDir(path,
                                     [&](Result<std::vector<std::string>> r) {
                                       out = std::move(r);
                                       done = true;
                                     });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  /// Enables session-consistent standby read offload cluster-wide.
  static void EnableStandbyReads(CfsConfig& cfg) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = ReadRouting::kRoundRobinStandby;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
};

TEST_F(ClusterTest, DeploymentConvergesToOneActivePerGroup) {
  Build(3, 3);
  Run(2 * kSecond);
  for (GroupId g = 0; g < 3; ++g) {
    const auto& view = cluster_->coord().frontend().PeekView(g);
    EXPECT_EQ(view.CountInState(ServerState::kActive), 1) << "group " << g;
    EXPECT_EQ(view.CountInState(ServerState::kStandby), 3) << "group " << g;
    EXPECT_NE(cluster_->FindActive(g), nullptr);
  }
}

TEST_F(ClusterTest, BasicMetadataOperations) {
  Build(1, 2);
  EXPECT_TRUE(MkdirSync("/data").ok());
  EXPECT_TRUE(CreateFile("/data/file1").ok());
  Status dup = CreateFile("/data/file1", 1);  // different client, same path
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  bool got_info = false;
  cluster_->client(0).GetFileInfo("/data/file1",
                                  [&](Result<fsns::FileInfo> r) {
                                    ASSERT_TRUE(r.ok());
                                    EXPECT_FALSE(r.value().is_dir);
                                    got_info = true;
                                  });
  Run(kSecond);
  EXPECT_TRUE(got_info);
}

TEST_F(ClusterTest, MutationsReplicateToAllStandbys) {
  Build(1, 3);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CreateFile("/d/f" + std::to_string(i)).ok());
  }
  Run(2 * kSecond);  // drain replication
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  const auto fp = active->tree().Fingerprint();
  int standbys_checked = 0;
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    auto& mds = cluster_->mds(0, static_cast<int>(m));
    if (&mds == active) continue;
    EXPECT_EQ(mds.role(), ServerState::kStandby);
    EXPECT_EQ(mds.tree().Fingerprint(), fp) << mds.name();
    EXPECT_EQ(mds.last_sn(), active->last_sn());
    ++standbys_checked;
  }
  EXPECT_EQ(standbys_checked, 3);
}

TEST_F(ClusterTest, ActiveCrashTriggersElectionAndFailover) {
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/pre").ok());
  core::MdsServer* old_active = cluster_->FindActive(0);
  ASSERT_NE(old_active, nullptr);

  old_active->Crash();
  Run(10 * kSecond);  // session timeout (5 s) + election + switch

  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_NE(new_active, old_active);
  const auto& view = cluster_->coord().frontend().PeekView(0);
  EXPECT_EQ(view.FindActive(), new_active->id());
  EXPECT_EQ(view.lock_holder, new_active->id());

  // The new active serves the pre-crash namespace and new operations.
  EXPECT_TRUE(new_active->tree().Exists("/pre"));
  EXPECT_TRUE(CreateFile("/post").ok());

  // Exactly one failover was traced, with sub-second election+switch.
  const auto& traces = cluster_->failover_log().traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].complete());
  EXPECT_LT(traces[0].ElectionTime(), 500 * kMillisecond);
  EXPECT_LT(traces[0].SwitchTime(), kSecond);
}

TEST_F(ClusterTest, ClientOpsSpanningTheFailureEventuallySucceed) {
  Build(1, 3);
  ASSERT_TRUE(MkdirSync("/w").ok());
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);

  // Launch an op, then immediately crash the active before it can answer.
  Status result = Status::TimedOut("pending");
  bool done = false;
  cluster_->client(0).Create("/w/during-failover", [&](Status s) {
    result = s;
    done = true;
  });
  active->Crash();
  testutil::WaitFor(*sim_, [&] { return done; }, 30 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.ToString();
  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_TRUE(new_active->tree().Exists("/w/during-failover"));
}

TEST_F(ClusterTest, AcknowledgedOpsSurviveFailover) {
  Build(1, 3);
  std::vector<std::string> acked;
  for (int i = 0; i < 30; ++i) {
    const std::string path = "/k/f" + std::to_string(i);
    if (CreateFile(path).ok()) acked.push_back(path);
  }
  ASSERT_EQ(acked.size(), 30u);
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  for (const auto& path : acked) {
    EXPECT_TRUE(new_active->tree().Exists(path)) << path;
  }
}

TEST_F(ClusterTest, RestartedActiveRejoinsAndIsRenewedToStandby) {
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/a").ok());
  core::MdsServer* old_active = cluster_->FindActive(0);
  old_active->Crash();
  Run(10 * kSecond);
  ASSERT_NE(cluster_->FindActive(0), nullptr);

  // More writes while the old active is down.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/while-down" + std::to_string(i)).ok());
  }

  old_active->Restart();
  Run(20 * kSecond);  // rejoin as junior; renewing upgrades to standby
  EXPECT_EQ(old_active->role(), ServerState::kStandby);
  EXPECT_EQ(old_active->tree().Fingerprint(),
            cluster_->FindActive(0)->tree().Fingerprint());
}

TEST_F(ClusterTest, LockLossForcesStepDownAndNewElection) {
  // The paper's Test A: modify the global view so the active loses the
  // lock. The deposed active must stop serving; a standby takes over.
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/before").ok());
  core::MdsServer* old_active = cluster_->FindActive(0);
  ASSERT_NE(old_active, nullptr);

  cluster_->faults().ForceLockRelease(0);
  Run(5 * kSecond);

  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_NE(new_active, old_active);
  EXPECT_NE(old_active->role(), ServerState::kActive);
  EXPECT_TRUE(CreateFile("/after").ok());
  // The deposed server re-registers and is eventually standby again.
  Run(20 * kSecond);
  EXPECT_EQ(old_active->role(), ServerState::kStandby);
}

TEST_F(ClusterTest, SecondFailureAfterFailoverIsAlsoTolerated) {
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/x1").ok());
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  ASSERT_TRUE(CreateFile("/x2").ok());
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_TRUE(active->tree().Exists("/x1"));
  EXPECT_TRUE(active->tree().Exists("/x2"));
  EXPECT_TRUE(CreateFile("/x3").ok());
}

TEST_F(ClusterTest, JuniorBootstrapsViaRenewing) {
  Build(1, 2, 7, /*juniors=*/1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/j/f" + std::to_string(i)).ok());
  }
  Run(15 * kSecond);  // renew scan + journal catch-up + upgrade
  auto& junior = cluster_->mds(0, 3);  // booted as junior
  EXPECT_EQ(junior.role(), ServerState::kStandby);
  EXPECT_EQ(junior.tree().Fingerprint(),
            cluster_->FindActive(0)->tree().Fingerprint());
}

TEST_F(ClusterTest, DynamicBackupAdditionAtRuntime) {
  Build(1, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CreateFile("/d/f" + std::to_string(i)).ok());
  }
  auto& added = cluster_->AddStandby(0);
  Run(20 * kSecond);
  EXPECT_EQ(added.role(), ServerState::kStandby);
  EXPECT_EQ(added.tree().Fingerprint(),
            cluster_->FindActive(0)->tree().Fingerprint());
  // And it participates in failover from now on.
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  EXPECT_NE(cluster_->FindActive(0), nullptr);
}

TEST_F(ClusterTest, DemoteOnlyWhenDrainedAndNeverTheActive) {
  Build(1, 2, /*seed=*/3);
  Run(kSecond);
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);

  // A converged group: any standby is demotable, the active never is.
  core::MdsServer* pick = cluster_->PickDemotable(0);
  ASSERT_NE(pick, nullptr);
  EXPECT_NE(pick, active);
  EXPECT_EQ(pick->role(), ServerState::kStandby);

  // Naming the active explicitly must refuse, not retire it.
  EXPECT_FALSE(cluster_->RemoveStandby(0, active->id()).ok());
  EXPECT_TRUE(active->alive());
  EXPECT_EQ(cluster_->CountRole(0, ServerState::kStandby), 2);

  // Cut one standby's cable and commit writes past it: the lagging
  // replica must not be demoted (retiring it would be harmless, but the
  // policy is to shed only fully caught-up capacity).
  core::MdsServer* lagging = nullptr;
  for (const auto& m : cluster_->Members(0)) {
    if (m.role == ServerState::kStandby) {
      lagging = m.server;
      break;
    }
  }
  ASSERT_NE(lagging, nullptr);
  cluster_->faults().Unplug(lagging->id());
  ASSERT_TRUE(CreateFile("/after/cut1").ok());
  ASSERT_TRUE(CreateFile("/after/cut2").ok());
  pick = cluster_->PickDemotable(0);
  ASSERT_NE(pick, nullptr);
  EXPECT_NE(pick->id(), lagging->id());
  cluster_->faults().Replug(lagging->id());
}

TEST_F(ClusterTest, BlockReportsReachActiveAndStandbys) {
  Build(1, 2);
  cluster_->data_server(0).AddBlock(101);
  cluster_->data_server(0).AddBlock(102);
  cluster_->data_server(0).ReportNow();
  Run(2 * kSecond);
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    const auto& mds = cluster_->mds(0, static_cast<int>(m));
    EXPECT_TRUE(mds.blocks().HasLocations(101)) << mds.name();
    EXPECT_TRUE(mds.blocks().HasLocations(102)) << mds.name();
  }
}

TEST_F(ClusterTest, MultiGroupOperationRouting) {
  Build(3, 1);
  // Ops on many directories land on different groups but all succeed.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(CreateFile("/dir" + std::to_string(i) + "/f").ok());
  }
  // At least two groups must have journaled something (hash spread).
  int groups_used = 0;
  for (GroupId g = 0; g < 3; ++g) {
    if (cluster_->FindActive(g)->last_sn() > 0) ++groups_used;
  }
  EXPECT_GE(groups_used, 2);
}

TEST_F(ClusterTest, CrossGroupRenameWithoutAConfiguredMapMovesTheEntry) {
  // No partition map in the config: the cluster seeds one, so a rename
  // between directories whose children live in different groups runs the
  // two-group transaction and the entry ends up where clients look for it.
  Build(2, 1);
  const shard::PartitionMap map = shard::PartitionMap::Seed(2);
  auto dir_with_children_in = [&map](GroupId g, const std::string& base) {
    for (int i = 0;; ++i) {
      const std::string d = base + std::to_string(i);
      if (map.OwnerOfDir(d) == g) return d;
    }
  };
  // Source children share a group with the root's children (where a
  // top-level mkdir lands); destination children live in the other group.
  const GroupId near = map.OwnerOfDir("/");
  const GroupId far = 1 - near;

  const std::string src = dir_with_children_in(near, "/d") + "/f";
  const std::string dst_dir = dir_with_children_in(far, "/d");
  ASSERT_TRUE(CreateFile(src).ok());
  ASSERT_TRUE(CreateFile(dst_dir + "/x").ok());
  const Status renamed = RenameSync(src, dst_dir + "/g");
  EXPECT_TRUE(renamed.ok()) << renamed.ToString();
  EXPECT_TRUE(StatSync(dst_dir + "/g").ok());
  EXPECT_EQ(StatSync(src).status().code(), StatusCode::kNotFound);

  // Destination directory made by mkdir instead: whatever the verdict, an
  // acked rename is visible at its destination and a refused one leaves
  // the source in place.
  const std::string src2 = dir_with_children_in(near, "/e") + "/f";
  const std::string dst2_dir = dir_with_children_in(far, "/e");
  ASSERT_TRUE(CreateFile(src2).ok());
  ASSERT_TRUE(MkdirSync(dst2_dir).ok());
  if (RenameSync(src2, dst2_dir + "/g").ok()) {
    EXPECT_TRUE(StatSync(dst2_dir + "/g").ok());
    EXPECT_EQ(StatSync(src2).status().code(), StatusCode::kNotFound);
  } else {
    EXPECT_TRUE(StatSync(src2).ok());
  }
}

TEST_F(ClusterTest, FailoverInOneGroupLeavesOthersUndisturbed) {
  Build(3, 2);
  Run(kSecond);
  core::MdsServer* g0_active = cluster_->FindActive(0);
  ASSERT_NE(g0_active, nullptr);
  g0_active->Crash();
  Run(2 * kSecond);  // mid-failover for group 0
  // Groups 1 and 2 still answer instantly.
  for (GroupId g = 1; g < 3; ++g) {
    EXPECT_NE(cluster_->FindActive(g), nullptr) << "group " << g;
  }
  Run(10 * kSecond);
  EXPECT_NE(cluster_->FindActive(0), nullptr);
}

// --- property sweep: random single-failure schedules --------------------------

class FailoverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailoverPropertyTest, SingleActivePerGroupAlwaysRestoredAndStateIntact) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim(seed);
  net::Network net(sim);
  CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  CfsCluster cluster(net, cfg);
  cluster.Start();
  sim.RunUntil(sim.Now() + kSecond);

  Rng rng(seed * 31 + 1);
  std::vector<std::string> acked;
  int next_file = 0;

  // Interleave acknowledged creates with random crash/restart of the
  // current active, several rounds.
  for (int round = 0; round < 3; ++round) {
    // A few writes.
    for (int i = 0; i < 5; ++i) {
      const std::string path = "/p/f" + std::to_string(next_file++);
      Status st = Status::TimedOut("pending");
      bool done = false;
      cluster.client(0).Create(path, [&](Status s) {
        st = s;
        done = true;
      });
      ASSERT_TRUE(testutil::WaitFor(sim, [&] { return done; }, 60 * kSecond));
      if (st.ok()) acked.push_back(path);
    }
    // Crash the active at a random offset; sometimes restart it later.
    core::MdsServer* active = cluster.FindActive(0);
    ASSERT_NE(active, nullptr) << "round " << round;
    sim.RunUntil(sim.Now() + static_cast<SimTime>(rng.Below(2 * kSecond)));
    active->Crash();
    if (rng.Chance(0.5)) active->Restart(kSecond);
    sim.RunUntil(sim.Now() + 12 * kSecond);

    // Invariant: exactly one active, holding the lock.
    core::MdsServer* now_active = cluster.FindActive(0);
    ASSERT_NE(now_active, nullptr) << "round " << round << " seed " << seed;
    int actives = 0;
    for (std::size_t m = 0; m < cluster.group_size(0); ++m) {
      auto& mds = cluster.mds(0, static_cast<int>(m));
      if (mds.alive() && mds.role() == ServerState::kActive) ++actives;
    }
    EXPECT_EQ(actives, 1) << "round " << round << " seed " << seed;
    // Invariant: every acknowledged op survived.
    for (const auto& path : acked) {
      EXPECT_TRUE(now_active->tree().Exists(path))
          << path << " lost in round " << round << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// --- session-consistent standby read offload --------------------------------

TEST_F(ClusterTest, StandbyReadsServeSessionConsistentResults) {
  Build(1, 2, 7, 0, EnableStandbyReads);
  ASSERT_TRUE(MkdirSync("/d").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(CreateFile("/d/f" + std::to_string(i)).ok());
  }
  // Write acks raised the session floor above zero.
  EXPECT_GT(cluster_->client(0).session_sn(0), 0u);

  // Every read carries that floor, so wherever it is routed it must
  // observe all of this session's writes.
  for (int i = 0; i < 8; ++i) {
    const Result<fsns::FileInfo> r = StatSync("/d/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().is_dir);
  }
  const Result<std::vector<std::string>> listing = ListSync("/d");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing.value().size(), 8u);

  // The reads were actually offloaded and actually served by standbys.
  EXPECT_GT(cluster_->client(0).counters().reads_offloaded, 0u);
  std::uint64_t served = 0;
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    served +=
        cluster_->mds(0, static_cast<int>(m)).counters().standby_reads_served;
  }
  EXPECT_GT(served, 0u);
}

TEST_F(ClusterTest, SessionFloorHoldsAcrossFailover) {
  Build(1, 3, 7, 0, EnableStandbyReads);
  ASSERT_TRUE(MkdirSync("/s").ok());
  ASSERT_TRUE(CreateFile("/s/before").ok());

  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);  // session timeout + election + switch
  ASSERT_NE(cluster_->FindActive(0), nullptr);

  // A write acked by the new active raises the floor past the failover;
  // subsequent reads (standby-routed or bounced) must observe it and
  // everything acked before the crash — read-your-writes across epochs.
  ASSERT_TRUE(CreateFile("/s/after").ok());
  const Result<fsns::FileInfo> after = StatSync("/s/after");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const Result<fsns::FileInfo> before = StatSync("/s/before");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const Result<std::vector<std::string>> listing = ListSync("/s");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing.value().size(), 2u);
}

TEST_F(ClusterTest, DeposedActiveServingAsStandbyDoesNotAnswerActiveReads) {
  Build(1, 3, 7, 0, EnableStandbyReads);
  ASSERT_TRUE(CreateFile("/audit").ok());
  FsClient& idle = cluster_->client(1);
  auto audit_stat = [&] {
    bool done = false;
    idle.GetFileInfo(
        "/audit", [&](Result<fsns::FileInfo> r) {
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          done = true;
        },
        ReadOptions{.require_active = true});
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return idle.last_stamp().server;
  };
  // The idle client caches the current active as its target.
  core::MdsServer* old_active = cluster_->FindActive(0);
  ASSERT_NE(old_active, nullptr);
  EXPECT_EQ(audit_stat(), old_active->id());

  // Depose it; it rejoins as a standby that serves reads, while the idle
  // client still names it the group's active.
  cluster_->faults().ForceLockRelease(0);
  Run(25 * kSecond);
  ASSERT_EQ(old_active->role(), ServerState::kStandby);
  core::MdsServer* new_active = cluster_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  ASSERT_NE(new_active, old_active);

  // An active-only read must be answered by the current active.
  EXPECT_EQ(audit_stat(), new_active->id());
  EXPECT_FALSE(idle.last_stamp().via_standby);
}

}  // namespace
}  // namespace mams::cluster
