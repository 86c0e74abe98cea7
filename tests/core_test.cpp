// Focused tests for MAMS core-protocol behaviours that the integration
// suite doesn't pin down individually: checkpointing to the SSP, the
// image-first renewing path, IO fencing of deposed actives, demotion of
// unresponsive standbys, failover-trace bookkeeping, and group commit's
// sealing rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "core/failover_trace.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/ssp.hpp"
#include "test_util.hpp"
#include "workload/load_engine.hpp"

namespace mams::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void Build(cluster::CfsConfig cfg, std::uint64_t seed = 17,
             net::LinkParams link = {}) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_, link);
    cfs_ = std::make_unique<cluster::CfsCluster>(*net_, cfg);
    cfs_->Start();
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

  Status CreateFile(const std::string& path) {
    Status out = Status::TimedOut("pending");
    bool done = false;
    cfs_->client(0).Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    for (int i = 0; i < 600 && !done; ++i) Run(100 * kMillisecond);
    return out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<cluster::CfsCluster> cfs_;
};

TEST_F(CoreTest, ActiveCheckpointsImageToSsp) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.checkpoint_interval = 5 * kSecond;
  Build(cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/ckpt/f" + std::to_string(i)).ok());
  }
  Run(8 * kSecond);  // past a checkpoint tick
  // Some pool node must now hold a g0/image-<sn> file.
  int images = 0;
  for (int p = 0; p < 3; ++p) {
    images += static_cast<int>(
        cfs_->pool_node(p).store().List("g0/image-").size());
  }
  EXPECT_GT(images, 0);
}

TEST_F(CoreTest, JuniorUsesImageWhenLagIsLarge) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.checkpoint_interval = 3 * kSecond;
  cfg.mds.image_gap_threshold = 5;  // tiny: force the image path
  Build(cfg);
  // Create enough history (in many batches) to exceed the gap threshold.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(CreateFile("/img/f" + std::to_string(i)).ok());
  }
  Run(5 * kSecond);  // checkpoint happens

  // A brand-new backup starts from sn 0 -> image-first renewal.
  auto& added = cfs_->AddStandby(0);
  Run(30 * kSecond);
  EXPECT_EQ(added.role(), ServerState::kStandby);
  EXPECT_EQ(added.tree().Fingerprint(),
            cfs_->FindActive(0)->tree().Fingerprint());
  EXPECT_TRUE(added.tree().Exists("/img/f0"));
}

TEST_F(CoreTest, PreloadBuildsTheTreeOnceAndCopiesItToEveryMember) {
  cluster::CfsConfig cfg;
  cfg.groups = 2;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  for (GroupId g = 0; g < 2; ++g) {
    int runs = 0;
    cfs_->PreloadGroup(g, [&](fsns::Tree& tree) {
      ++runs;
      for (int i = 0; i < 50; ++i) {
        (void)tree.Create("/pre/g" + std::to_string(g) + "/f" +
                              std::to_string(i),
                          3, 0, ClientOpId{});
      }
      (void)tree.Execute(testutil::Rec(journal::OpCode::kSetOwner, "/pre", 1,
                                       ClientOpId{}, "alice:staff"));
    });
    EXPECT_EQ(runs, 1) << "group " << g;
    const auto members = cfs_->Members(g);
    ASSERT_EQ(members.size(), 3u);
    const fsns::Tree& first = members.front().server->tree();
    EXPECT_EQ(first.file_count(), 50u);
    for (const auto& m : members) {
      EXPECT_EQ(m.server->tree().Fingerprint(), first.Fingerprint());
      EXPECT_EQ(m.server->tree().SaveImage(), first.SaveImage());
      EXPECT_EQ(m.server->tree().GetFileInfo("/pre").value().owner,
                "alice:staff");
    }
  }
}

TEST_F(CoreTest, StandbyAddedToAPreloadedGroupRenewsFromTheSetupImage) {
  // A preloaded namespace reaches the pool only through the setup
  // checkpoint, at sn 0; no journal record carries it. A fresh junior is
  // also at sn 0, and must still take the image, or it renews into a
  // standby that lacks every preloaded file.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.checkpoint_interval = 3600 * kSecond;  // only the forced one
  Build(cfg);
  constexpr int kFiles = 100;
  cfs_->PreloadGroup(0, [](fsns::Tree& tree) {
    for (int i = 0; i < kFiles; ++i) {
      ClientOpId none{};
      (void)tree.Create("/pre/f" + std::to_string(i), 3, 0, none);
    }
  });
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  active->CheckpointNow();
  auto image_in_pool = [&] {
    for (int p = 0; p < 2; ++p) {  // one pool node per member
      if (!cfs_->pool_node(p).store().List("g0/image-").empty()) return true;
    }
    return false;
  };
  ASSERT_TRUE(testutil::WaitFor(*sim_, image_in_pool, 10 * kSecond));
  Run(2 * kSecond);  // the last chunk lands and the image is advertised

  auto& added = cfs_->AddStandby(0);
  Run(30 * kSecond);
  ASSERT_EQ(added.role(), ServerState::kStandby);
  int present = 0;
  for (int i = 0; i < kFiles; ++i) {
    present += added.tree().Exists("/pre/f" + std::to_string(i)) ? 1 : 0;
  }
  EXPECT_EQ(present, kFiles);
  EXPECT_EQ(added.tree().Fingerprint(), active->tree().Fingerprint());
}

TEST_F(CoreTest, DeposedActiveIsFencedByStandbys) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/fence/a").ok());

  // Partition the active away from the coordination service only: its
  // session expires and a standby takes over, but the old active can still
  // reach its peers and may try to replicate stale journals.
  MdsServer* old_active = cfs_->FindActive(0);
  net_->Partition(old_active->id(), cfs_->coord().frontend_id());
  Run(10 * kSecond);

  MdsServer* new_active = cfs_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_NE(new_active, old_active);
  // The old active observed the fencing (stale-fence acks or lock-loss
  // event once the partition heals) and must no longer be active.
  net_->HealAll();
  Run(5 * kSecond);
  EXPECT_NE(old_active->role(), ServerState::kActive);
  // And the cluster still serves writes.
  EXPECT_TRUE(CreateFile("/fence/b").ok());
}

TEST_F(CoreTest, UnresponsiveStandbyIsDemotedToJunior) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/d/x").ok());

  // Cut one standby off from the active only (coord heartbeats still
  // flow): journal syncs to it time out and the active demotes it.
  MdsServer* active = cfs_->FindActive(0);
  MdsServer* victim = nullptr;
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (mds.role() == ServerState::kStandby) {
      victim = &mds;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  net_->Partition(active->id(), victim->id());
  ASSERT_TRUE(CreateFile("/d/y").ok());  // forces a sync round
  Run(5 * kSecond);
  EXPECT_EQ(cfs_->coord().frontend().PeekView(0).StateOf(victim->id()),
            ServerState::kJunior);

  // Heal: the renewing protocol brings it back to standby.
  net_->HealAll();
  Run(40 * kSecond);
  EXPECT_EQ(victim->role(), ServerState::kStandby);
}

TEST_F(CoreTest, FailoverTraceStagesAreOrdered) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/t/1").ok());
  cfs_->FindActive(0)->Crash();
  Run(12 * kSecond);
  const auto& traces = cfs_->failover_log().traces();
  ASSERT_EQ(traces.size(), 1u);
  const auto& t = traces[0];
  ASSERT_TRUE(t.complete());
  EXPECT_LE(t.failure_detected, t.election_started);
  EXPECT_LT(t.election_started, t.lock_granted);
  EXPECT_LT(t.lock_granted, t.switch_completed);
  // Paper's figure: election < 100 ms is typical; switch a few hundred ms.
  EXPECT_LT(ToMillis(t.ElectionTime()), 500.0);
  EXPECT_LT(ToMillis(t.SwitchTime()), 1000.0);
}

// --- failover step 5: the registration gather --------------------------------

/// The group's standbys other than `active`, in member order.
std::vector<MdsServer*> Standbys(cluster::CfsCluster& cfs, MdsServer* active) {
  std::vector<MdsServer*> out;
  for (std::size_t m = 0; m < cfs.group_size(0); ++m) {
    MdsServer& mds = cfs.mds(0, static_cast<int>(m));
    if (&mds != active && mds.role() == ServerState::kStandby) {
      out.push_back(&mds);
    }
  }
  return out;
}

TEST_F(CoreTest, RegistrationGatherSettlesOnTheLastLiveAnswer) {
  // 1A3S with the active crashed: step 5 awaits the two other standbys,
  // which answer within a round trip. The crashed active is down in the
  // view and is not waited for, so the switch takes milliseconds, not the
  // 300 ms kRegisterWait bound.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/gather/a").ok());
  cfs_->FindActive(0)->Crash();
  Run(12 * kSecond);
  const auto& traces = cfs_->failover_log().traces();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_TRUE(traces[0].complete());
  EXPECT_LT(ToMillis(traces[0].SwitchTime()), 100.0);
  EXPECT_TRUE(CreateFile("/gather/b").ok());
}

TEST_F(CoreTest, RegistrantAheadIsAdoptedBeforeTheFinalRound) {
  // A laggard standby wins the election while the two other standbys hold
  // a batch it missed: its prepare was lost and the pool never got a copy.
  // The probe round finds them ahead, the catch-up adopts the batch, and
  // the final round asks nobody to discard. Each round settles on the
  // registrants' answers, so the switch stays under one kRegisterWait.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  // Algorithm 1 elects by a random draw: search the cluster seed for a
  // run that elects the laggard.
  bool laggard_elected = false;
  for (std::uint64_t seed = 1; seed <= 16 && !laggard_elected; ++seed) {
    cfs_.reset();
    net_.reset();
    sim_.reset();
    Build(cfg, seed);
    ASSERT_TRUE(CreateFile("/ahead/a").ok());
    MdsServer* active = cfs_->FindActive(0);
    ASSERT_NE(active, nullptr);
    const std::vector<MdsServer*> standbys = Standbys(*cfs_, active);
    ASSERT_EQ(standbys.size(), 3u);
    MdsServer* laggard = standbys[0];
    net_->Partition(active->id(), laggard->id());
    for (int p = 0; p < 4; ++p) {
      net_->Partition(active->id(), cfs_->pool_node(p).id());
    }
    const SerialNumber before = active->last_sn();
    cfs_->client(0).Create("/ahead/b", [](Status) {});
    ASSERT_TRUE(testutil::WaitFor(
        *sim_,
        [&] {
          return standbys[1]->last_sn() > before &&
                 standbys[2]->last_sn() > before;
        },
        kSecond, kMillisecond));
    ASSERT_EQ(laggard->last_sn(), before);
    active->Crash();  // before the lost prepare could demote the laggard
    net_->HealAll();
    Run(12 * kSecond);
    if (cfs_->FindActive(0) != laggard) continue;
    laggard_elected = true;

    const auto& traces = cfs_->failover_log().traces();
    ASSERT_EQ(traces.size(), 1u);
    ASSERT_TRUE(traces[0].complete());
    EXPECT_LT(ToMillis(traces[0].SwitchTime()), 300.0);
    EXPECT_TRUE(laggard->tree().Exists("/ahead/b"));
    for (MdsServer* peer : {standbys[1], standbys[2]}) {
      EXPECT_EQ(peer->role(), ServerState::kStandby) << peer->name();
      EXPECT_EQ(peer->last_sn(), laggard->last_sn()) << peer->name();
      EXPECT_EQ(peer->tree().Fingerprint(), laggard->tree().Fingerprint())
          << peer->name();
    }
  }
  ASSERT_TRUE(laggard_elected) << "no seed elected the laggard";
}

TEST_F(CoreTest, UnreachableLiveMemberBoundsTheGatherAndIsRenewedLater) {
  // A junior whose coordination session is fine but that no other member
  // can reach: step 5 awaits it (the view does not mark it down), its
  // registration RPC fails, and the gather settles within kRegisterWait.
  // Once the cut heals, the renewing protocol makes it a standby again.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/unreach/a").ok());
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  MdsServer* victim = Standbys(*cfs_, active).front();
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    MdsServer& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds != victim) net_->Partition(victim->id(), mds.id());
  }
  ASSERT_TRUE(CreateFile("/unreach/b").ok());  // its sync demotes the victim
  Run(2 * kSecond);
  ASSERT_EQ(cfs_->coord().frontend().PeekView(0).StateOf(victim->id()),
            ServerState::kJunior);

  active->Crash();
  Run(12 * kSecond);
  const auto& traces = cfs_->failover_log().traces();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_TRUE(traces[0].complete());
  EXPECT_NE(traces[0].elected, victim->id());
  const double switch_ms = ToMillis(traces[0].SwitchTime());
  EXPECT_GE(switch_ms, 250.0);  // the victim's registration attempt failed
  EXPECT_LT(switch_ms, 300.0 + 50.0);  // kRegisterWait plus steps 1-4

  net_->HealAll();
  Run(40 * kSecond);
  EXPECT_EQ(victim->role(), ServerState::kStandby);
  EXPECT_EQ(victim->tree().Fingerprint(),
            cfs_->FindActive(0)->tree().Fingerprint());
}

TEST_F(CoreTest, GroupDirectoryTracksActives) {
  cluster::CfsConfig cfg;
  cfg.groups = 2;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  for (GroupId g = 0; g < 2; ++g) {
    EXPECT_EQ(cfs_->directory().Active(g), cfs_->FindActive(g)->id());
  }
  cfs_->FindActive(0)->Crash();
  Run(10 * kSecond);
  EXPECT_EQ(cfs_->directory().Active(0), cfs_->FindActive(0)->id());
}

TEST_F(CoreTest, ForcedCheckpointReleasesItsImageAtTeardown) {
  // A forced checkpoint streams its image in several chunks, each append's
  // completion issuing the next. Once the image is in the pool and the
  // cluster is gone, nothing may still own the image bytes: under
  // LeakSanitizer (the sanitizer CI job) a chunk callback that keeps its
  // own closure alive fails this test at exit.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cfg.mds.checkpoint_interval = 3600 * kSecond;  // only the forced one
  cfg.mds.image_chunk_bytes = 256;
  Build(cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateFile("/forced/f" + std::to_string(i)).ok());
  }
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  active->CheckpointNow();
  auto image_in_pool = [&] {
    for (int p = 0; p < 3; ++p) {
      if (!cfs_->pool_node(p).store().List("g0/image-").empty()) return true;
    }
    return false;
  };
  ASSERT_TRUE(testutil::WaitFor(*sim_, image_in_pool, 10 * kSecond));
  Run(2 * kSecond);  // the last chunk's replica acks land

  cfs_.reset();
  net_.reset();
  sim_.reset();
}

TEST_F(CoreTest, CountersReflectProtocolActivity) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CreateFile("/c/f" + std::to_string(i)).ok());
  }
  Run(kSecond);
  MdsServer* active = cfs_->FindActive(0);
  EXPECT_GE(active->counters().mutations, 20u);
  EXPECT_GT(active->counters().batches_synced, 0u);
  int applied = 0;
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds != active && mds.counters().batches_applied > 0) ++applied;
  }
  EXPECT_EQ(applied, 2);
}

TEST_F(CoreTest, ReadsServedDuringUpgradeWindow) {
  // Step 3 of the failover protocol: requests reaching the elected standby
  // while it finishes its upgrade wait in its buffer and are served at
  // step 6. We can't pin the exact window deterministically, but ops
  // issued throughout a failover must all eventually succeed and none may
  // be lost or double-applied.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/w/seed").ok());

  workload::Mix mix;
  mix.create = 0.5;
  mix.getfileinfo = 0.5;
  workload::LoadEngine::Options dopts;
  dopts.loop = workload::LoadEngine::Loop::kClosed;
  dopts.sessions = 4;
  workload::LoadEngine driver(*sim_, workload::MakeApi(cfs_->client(1)), mix,
                              3, dopts);
  driver.Start();
  Run(2 * kSecond);
  cfs_->FindActive(0)->Crash();
  Run(15 * kSecond);
  driver.Stop();
  Run(2 * kSecond);
  EXPECT_GT(driver.completed(), 100u);
  // All replicas converge after the dust settles.
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds == active || !mds.alive() ||
        mds.role() != ServerState::kStandby) {
      continue;
    }
    EXPECT_EQ(mds.tree().Fingerprint(), active->tree().Fingerprint())
        << mds.name();
  }
}

TEST_F(CoreTest, PipelinedCommitDrainsAcrossViewChange) {
  // Group commit keeps several 2PC rounds in flight while further records
  // wait for a slot. Crash the active while that window is hot: every
  // acked mutation must survive into the new view and the waiting and
  // in-flight tail must never be double-applied — replicas converge to the
  // new active's fingerprint once the dust settles.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/p/seed").ok());

  workload::Mix mix;
  mix.create = 0.70;
  mix.add_block = 0.15;
  mix.getfileinfo = 0.15;
  workload::LoadEngine::Options dopts;
  dopts.loop = workload::LoadEngine::Loop::kClosed;
  dopts.sessions = 12;  // backlog wider than the 4-slot window
  workload::LoadEngine driver(*sim_, workload::MakeApi(cfs_->client(1)), mix,
                              7, dopts);
  driver.Start();
  Run(3 * kSecond);

  // The window must actually have been exceeded, otherwise this test is
  // exercising plain one-at-a-time commit and proves nothing.
  MdsServer* old_active = cfs_->FindActive(0);
  ASSERT_NE(old_active, nullptr);
  EXPECT_GT(old_active->counters().pipeline_deferred, 0u);

  old_active->Crash();  // mid-window: syncs in flight, records waiting
  Run(15 * kSecond);
  driver.Stop();
  Run(2 * kSecond);
  EXPECT_GT(driver.completed(), 100u);

  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_NE(active, old_active);
  EXPECT_TRUE(active->tree().Exists("/p/seed"));
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds == active || !mds.alive() ||
        mds.role() != ServerState::kStandby) {
      continue;
    }
    EXPECT_EQ(mds.tree().Fingerprint(), active->tree().Fingerprint())
        << mds.name();
  }
  // And the new view still serves writes after draining the old window.
  EXPECT_TRUE(CreateFile("/p/after").ok());
}

TEST_F(CoreTest, BatchNoReplicaAckedStillReachesThePool) {
  // An active cut off from every peer completes its in-flight round by
  // timeouts alone: no standby ack, no pool copy. If the cut heals inside
  // the session timeout it stays active, the standbys backfill the batch
  // and later batches commit on top of it. The pool must get its copy
  // too: a hole in the pool's journal ends a junior's drain early and
  // loses every committed batch behind it.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  ASSERT_TRUE(CreateFile("/hole/a").ok());
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);

  // Cut the active the moment it journals a create: the prepares and the
  // pool append leave only after the fan-out CPU charge, so all are lost.
  const std::uint64_t before = active->counters().mutations;
  cfs_->client(0).Create("/hole/b", [](Status) {});
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return active->counters().mutations > before; }, kSecond,
      kMicrosecond));
  const SerialNumber cut_sn = active->last_sn();
  cfs_->faults().Unplug(active->id());
  Run(2200 * kMillisecond);  // the round and the pool append time out
  cfs_->faults().Replug(active->id());
  ASSERT_EQ(cfs_->FindActive(0), active);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CreateFile("/hole/c" + std::to_string(i)).ok());
  }
  Run(2 * kSecond);  // past the pool re-append cadence

  std::set<SerialNumber> pooled;
  for (int p = 0; p < 3; ++p) {
    const storage::SharedFile* journal =
        cfs_->pool_node(p).store().Find("g0/journal");
    if (journal == nullptr) continue;
    for (const auto& rec : journal->records()) pooled.insert(rec.sn);
  }
  EXPECT_TRUE(pooled.contains(cut_sn)) << "sn " << cut_sn;
  EXPECT_EQ(pooled.size(), active->last_sn());
}

TEST_F(CoreTest, BatchesSealOnlyIntoAFreeWindowSlot) {
  // The one sealing rule: a batch seals only while fewer than four 2PC
  // rounds are in flight. A closed-loop backlog wider than the window may
  // therefore never put more than four rounds plus the records waiting for
  // a slot into the commit path, and the records that waited seal together.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  // On the default LAN link the CPU-aware rule keeps fewer than four
  // rounds in flight: a round lasts barely longer than four batches'
  // fan-out charges, and a batch seals only onto an idle CPU. A 500 us
  // link stretches the round, so the backlog fills the window.
  net::LinkParams link;
  link.base_latency = 500 * kMicrosecond;
  Build(cfg, /*seed=*/17, link);
  ASSERT_TRUE(CreateFile("/b/seed").ok());

  workload::Mix mix;
  mix.create = 0.80;
  mix.add_block = 0.20;
  workload::LoadEngine::Options dopts;
  dopts.loop = workload::LoadEngine::Loop::kClosed;
  dopts.sessions = 32;
  workload::LoadEngine driver(*sim_, workload::MakeApi(cfs_->client(1)), mix,
                              11, dopts);
  driver.Start();
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  std::size_t deepest = 0;
  int waiting_samples = 0;
  for (int i = 0; i < 40000; ++i) {  // 2 s, sampled every 50 us
    Run(50 * kMicrosecond);
    const std::size_t depth = active->commit_queue_depth();
    deepest = std::max(deepest, depth);
    if (depth == 5) ++waiting_samples;
  }
  driver.Stop();
  Run(2 * kSecond);

  EXPECT_LE(deepest, 5u);
  // The backlog really was wider than the window.
  EXPECT_GT(waiting_samples, 0);
  EXPECT_GT(active->counters().pipeline_deferred, 0u);
  // Every standby replayed some batch of more than one record.
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds == active) continue;
    EXPECT_GT(mds.counters().apply_records, mds.counters().batches_applied)
        << mds.name();
  }
}

// CPU-aware group commit: a batch seals once its fan-out can start. The
// fixture below issues `n` creates at once on a 1A3S group whose active is
// idle, with no round in flight. Network jitter (30 us) is below a create's
// CPU cost (45 us), so the later creates are all queued on the active's CPU
// when the first one executes.
class GroupCommitTest : public CoreTest {
 protected:
  void SetUp() override {
    cluster::CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 3;
    cfg.clients = 1;
    cfg.data_servers = 1;
    Build(cfg);
    ASSERT_TRUE(CreateFile("/g/seed").ok());
    Run(kSecond);
    active_ = cfs_->FindActive(0);
    ASSERT_NE(active_, nullptr);
    sn0_ = active_->last_sn();
    mutations0_ = active_->counters().mutations;
  }

  void IssueCreates(int n) {
    for (int i = 0; i < n; ++i) {
      cfs_->client(0).Create("/g/f" + std::to_string(i), [this](Status s) {
        if (s.ok()) ++acked_;
      });
    }
  }

  /// Runs until the active executed `n` of the creates, at 1 us resolution.
  bool WaitExecuted(std::uint64_t n) {
    return testutil::WaitFor(
        *sim_,
        [&] { return active_->counters().mutations >= mutations0_ + n; },
        kSecond, kMicrosecond);
  }

  std::size_t LastBatchRecords() const {
    return active_->recent_batches().back()->records.size();
  }

  std::uint64_t BatchesSealed() {
    return sim_->obs().metrics().histogram("mds.batch_records")->count();
  }

  MdsServer* active_ = nullptr;
  SerialNumber sn0_ = 0;
  std::uint64_t mutations0_ = 0;
  int acked_ = 0;
};

TEST_F(GroupCommitTest, LoneCreateOnAnIdleActiveSealsAtOnce) {
  IssueCreates(1);
  ASSERT_TRUE(WaitExecuted(1));
  // Sealed by the event that executed it, alone.
  EXPECT_EQ(active_->last_sn(), sn0_ + 1);
  EXPECT_EQ(LastBatchRecords(), 1u);
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return acked_ == 1; }, kSecond));
}

TEST_F(GroupCommitTest, CreatesQueuedOnABusyCpuShareOneBatch) {
  IssueCreates(4);
  ASSERT_TRUE(WaitExecuted(4));
  // The first create sealed alone; its round is in flight and its fan-out
  // is queued behind the other three, so their records wait for the CPU.
  EXPECT_EQ(active_->last_sn(), sn0_ + 1);
  const SimTime backlog = active_->CpuBacklog();
  ASSERT_GT(backlog, 0);
  sim_->RunUntil(sim_->Now() + backlog);  // the instant the backlog drains
  EXPECT_EQ(active_->last_sn(), sn0_ + 2);
  EXPECT_EQ(LastBatchRecords(), 3u);
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return acked_ == 4; }, kSecond));
}

// The pool copy's leg is the round's slowest (it holds a disk write), so it
// leaves first: the round ends one fan-out charge after that leg began, not
// one charge per standby later.
TEST_F(GroupCommitTest, PoolCopyLeavesFirst) {
  auto& metrics = sim_->obs().metrics();
  const obs::Histogram& sync = *metrics.histogram("mds.sync_batch_ns");
  const obs::Histogram& append = *metrics.histogram("ssp.append_ns");
  auto sum = [](const obs::Histogram& h) {
    return std::llround(h.Mean() * static_cast<double>(h.count()));
  };
  const std::uint64_t syncs0 = sync.count();
  const std::uint64_t appends0 = append.count();
  const std::int64_t sync_sum0 = sum(sync);
  const std::int64_t append_sum0 = sum(append);
  IssueCreates(1);
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return acked_ == 1; }, kSecond));
  ASSERT_EQ(sync.count(), syncs0 + 1);
  ASSERT_EQ(append.count(), appends0 + 1);

  const auto bytes = active_->recent_batches().back()->Serialize().size();
  const SimTime per_target =
      kOpCosts.sync_cpu_base +
      static_cast<SimTime>(static_cast<double>(bytes) /
                           kOpCosts.sync_bytes_per_sec *
                           static_cast<double>(kSecond));
  const std::int64_t round = sum(sync) - sync_sum0;
  const std::int64_t pool_leg = sum(append) - append_sum0;
  EXPECT_GE(round, pool_leg);
  EXPECT_LE(round - pool_leg, per_target);
}

// A tenure that ends after the pool copy left but before the prepares did:
// the queued prepares still go out under the old fence, so the standbys
// take the batch and the successor serves the create.
TEST_F(GroupCommitTest, PreparesQueuedBehindThePoolCopyOutliveTheTenure) {
  const obs::Counter& appends = *sim_->obs().metrics().counter("ssp.append");
  const std::uint64_t appends0 = appends.value;
  IssueCreates(1);
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return appends.value > appends0; }, kSecond, kMicrosecond));
  ASSERT_EQ(active_->last_sn(), sn0_ + 1);
  active_->StepDownFromActive("test");
  Run(10 * kMillisecond);
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    auto& mds = cfs_->mds(0, static_cast<int>(m));
    if (&mds == active_) continue;
    EXPECT_EQ(mds.last_sn(), sn0_ + 1) << mds.name();
  }
  ASSERT_TRUE(testutil::WaitFor(
      *sim_,
      [&] {
        const MdsServer* active = cfs_->FindActive(0);
        return active != nullptr && active != active_;
      },
      30 * kSecond));
  EXPECT_TRUE(cfs_->FindActive(0)->tree().Exists("/g/f0"));
}

TEST_F(GroupCommitTest, DeferredSealDiesWithACrashedTenure) {
  IssueCreates(4);
  ASSERT_TRUE(WaitExecuted(2));
  // One round in flight, one record waiting for the CPU to drain.
  ASSERT_EQ(active_->commit_queue_depth(), 2u);
  const SimTime due = sim_->Now() + active_->CpuBacklog();
  const std::uint64_t sealed = BatchesSealed();
  active_->Crash();
  sim_->RunUntil(due + kMillisecond);
  EXPECT_EQ(BatchesSealed(), sealed);
  // A successor takes over; the creates' retries commit there.
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return acked_ == 4; },
                                30 * kSecond));
  EXPECT_NE(cfs_->FindActive(0), active_);
}

TEST_F(GroupCommitTest, DeferredSealDiesWithASteppedDownTenure) {
  IssueCreates(4);
  ASSERT_TRUE(WaitExecuted(2));
  ASSERT_EQ(active_->commit_queue_depth(), 2u);
  const SimTime due = sim_->Now() + active_->CpuBacklog();
  const std::uint64_t sealed = BatchesSealed();
  active_->StepDownFromActive("test");
  // The server stays up: its deferred seal fires, and must find the tenure
  // gone instead of sealing the deposed server's records.
  sim_->RunUntil(due + kMillisecond);
  EXPECT_EQ(BatchesSealed(), sealed);
  EXPECT_EQ(active_->commit_queue_depth(), 0u);
  EXPECT_EQ(active_->role(), ServerState::kJunior);
}

// A renewal run that ends by promotion while its SSP drain is still out
// leaves that drain's read behind. When the junior is demoted and its next
// run starts before the read times out, the stale failure must neither go
// on draining nor end the new run.
TEST_F(CoreTest, StaleSspReadOfAnEndedRenewalRunSparesTheNextRun) {
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  Build(cfg);
  sim_->obs().tracer().set_enabled(true);
  ASSERT_TRUE(CreateFile("/renew/a").ok());
  MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  const auto& counters = sim_->obs().metrics().counters();
  auto count = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second.value;
  };
  constexpr SimTime kStep = 10 * kMillisecond;

  // The new member boots as a junior cut off from the pool, so its first
  // run's journal drain hangs on its first replica read. Its sn-0 progress
  // report is within the final-sync gap of this short history, so the
  // active promotes it while that read is still out.
  const std::uint64_t reads = count("ssp.read");
  MdsServer& junior = cfs_->AddStandby(0);
  for (int p = 0; p < 3; ++p) {
    net_->Partition(junior.id(), cfs_->pool_node(p).id());
  }
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return count("ssp.read") == reads + 1; }, 10 * kSecond,
      kStep));
  const SimTime stale_read_fails =
      sim_->Now() + storage::SspClient::kReadTimeout;
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return junior.role() == ServerState::kStandby; },
      10 * kSecond, kStep));
  ASSERT_EQ(count("ssp.read"), reads + 1);

  // Demote the new standby: cut it off from the active and commit a batch.
  net_->Partition(active->id(), junior.id());
  ASSERT_TRUE(CreateFile("/renew/b").ok());
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return junior.role() == ServerState::kJunior; },
      10 * kSecond, kStep));
  // Commit one batch per create until the group is further ahead than the
  // final-sync gap, so no progress report can promote the next run.
  int created = 0;
  std::function<void(Status)> next = [&](Status) {
    if (++created < 40) {
      cfs_->client(0).Create("/renew/c" + std::to_string(created), next);
    }
  };
  cfs_->client(0).Create("/renew/c0", next);
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return created == 40; },
                                5 * kSecond, kStep));

  // The active renews it again. The second run's first read goes out, and
  // is lost, before the stale read times out.
  net_->Heal(active->id(), junior.id());
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return count("ssp.read") == reads + 2; }, 10 * kSecond,
      kStep));
  ASSERT_LT(sim_->Now(), stale_read_fails);
  // The stale read fails while the second run's read is still out; the
  // ended run's drain stops there instead of reading the next replica.
  sim_->RunUntil(stale_read_fails + kStep);
  EXPECT_EQ(count("ssp.read"), reads + 2);
  // The pool comes back. The second run's read of the next replica goes
  // out once its first read times out, and succeeds.
  net_->HealAll();
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return junior.role() == ServerState::kStandby; },
      30 * kSecond, kStep));

  std::vector<std::string> outcomes;
  for (const auto& span : sim_->obs().tracer().spans()) {
    if (span.name != "renewing" || span.node != junior.id()) continue;
    for (const auto& arg : span.args) {
      if (arg.key == "outcome") outcomes.push_back(arg.value);
    }
  }
  ASSERT_GE(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], "promoted");
  EXPECT_EQ(outcomes[1], "caught_up");
}

}  // namespace
}  // namespace mams::core
