// Tests for the IO-fencing layer: the shared-file fence semantics in the
// pool, the stale-writer rejection path end to end, and the dirty-state
// handling of deposed actives. These pin the guarantees Section III.C
// asserts ("there is no scenario that two metadata servers access the same
// shared file simultaneously" and the sn-based duplicate rule).
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "storage/shared_file.hpp"

namespace mams {
namespace {

// --- SharedFile fence semantics (pure) ----------------------------------------

storage::SspRecord Rec(SerialNumber sn, FenceToken fence, char payload) {
  storage::SspRecord r;
  r.sn = sn;
  r.fence = fence;
  r.bytes = {payload};
  return r;
}

TEST(SharedFileFencingTest, StaleWriterRejected) {
  storage::SharedFile f;
  EXPECT_TRUE(f.Append(Rec(1, 2, 'a')));  // writer with fence 2
  EXPECT_FALSE(f.Append(Rec(2, 1, 'b')));  // deposed writer (fence 1)
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.max_fence(), 2u);
}

TEST(SharedFileFencingTest, NewerWriterReplacesSameSn) {
  storage::SharedFile f;
  EXPECT_TRUE(f.Append(Rec(5, 1, 'a')));  // old active's sn 5
  EXPECT_TRUE(f.Append(Rec(5, 2, 'b')));  // new active's sn 5 wins the slot
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.records()[0].bytes[0], 'b');
  EXPECT_EQ(f.records()[0].fence, 2u);
}

TEST(SharedFileFencingTest, SameFenceDuplicateIsIdempotent) {
  storage::SharedFile f;
  EXPECT_TRUE(f.Append(Rec(3, 1, 'a')));
  EXPECT_TRUE(f.Append(Rec(3, 1, 'z')));  // retry: kept, not replaced
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.records()[0].bytes[0], 'a');
}

TEST(SharedFileFencingTest, EqualFenceInterleavesBySn) {
  storage::SharedFile f;
  EXPECT_TRUE(f.Append(Rec(2, 1, 'b')));
  EXPECT_TRUE(f.Append(Rec(1, 1, 'a')));  // reordered arrival
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.records()[0].sn, 1u);
  EXPECT_EQ(f.records()[1].sn, 2u);
}

// --- end-to-end fencing ---------------------------------------------------------

class FencingClusterTest : public ::testing::Test {
 protected:
  FencingClusterTest() : sim_(23), net_(sim_) {
    cluster::CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 3;
    cfg.clients = 2;
    cfg.data_servers = 1;
    cfs_ = std::make_unique<cluster::CfsCluster>(net_, cfg);
    cfs_->Start();
    sim_.RunUntil(sim_.Now() + kSecond);
  }

  void Run(SimTime dt) { sim_.RunUntil(sim_.Now() + dt); }

  Status CreateFile(const std::string& path) {
    Status out = Status::TimedOut("pending");
    bool done = false;
    cfs_->client(0).Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<cluster::CfsCluster> cfs_;
};

TEST_F(FencingClusterTest, IsolatedActiveCannotPolluteSspJournal) {
  ASSERT_TRUE(CreateFile("/f/committed").ok());
  core::MdsServer* old_active = cfs_->FindActive(0);

  // Isolate the active from everything (cable pull). Its session expires,
  // a standby takes over with a HIGHER fence, and serves new writes.
  cfs_->faults().Unplug(old_active->id());
  Run(10 * kSecond);
  core::MdsServer* new_active = cfs_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  ASSERT_NE(new_active, old_active);
  ASSERT_TRUE(CreateFile("/f/after-failover").ok());
  const FenceToken new_fence = new_active->fence();
  EXPECT_GT(new_fence, 0u);

  // Re-plug the old active: any late SSP flush it attempts carries its
  // stale fence and is rejected by every pool node.
  cfs_->faults().Replug(old_active->id());
  Run(10 * kSecond);
  for (int p = 0; p < 4; ++p) {
    const auto* file = cfs_->pool_node(p).store().Find("g0/journal");
    if (file == nullptr) continue;
    EXPECT_GE(file->max_fence(), new_fence) << "pool " << p;
    // And every surviving record belongs to a non-stale writer regime:
    // for each sn the stored fence is the maximum ever written there.
    for (const auto& rec : file->records()) {
      EXPECT_LE(rec.fence, file->max_fence());
    }
  }
  // The old active must have rebuilt (junior -> standby) rather than
  // keeping any uncommitted state.
  EXPECT_NE(old_active->role(), ServerState::kActive);
}

TEST_F(FencingClusterTest, DirtyDeposedActiveRebuildsAndConverges) {
  ASSERT_TRUE(CreateFile("/g/one").ok());
  core::MdsServer* old_active = cfs_->FindActive(0);

  // Launch a write and isolate the active after it has applied the op to
  // its tree but before the journal batch can replicate anywhere: the tree
  // now holds a *phantom* version of the mutation (its own inode id and
  // timestamp) that the cluster never committed.
  cfs_->client(0).Create("/g/uncommitted", [](Status) {});
  Run(450 * kMicrosecond);  // delivered + applied; sync still in flight
  ASSERT_TRUE(old_active->tree().Exists("/g/uncommitted"))
      << "test setup: the op must have been applied locally";
  cfs_->faults().Unplug(old_active->id());

  Run(12 * kSecond);
  core::MdsServer* new_active = cfs_->FindActive(0);
  ASSERT_NE(new_active, nullptr);
  ASSERT_NE(new_active, old_active);
  // The client's retry legitimately commits the op on the new active —
  // exactly-once from the caller's perspective — but with the NEW
  // active's inode id/mtime, not the phantom's.

  // Heal. The deposed active must discard its phantom state (it is dirty)
  // and rebuild through the junior path, ending byte-identical with the
  // new active — phantom replaced by the committed version.
  cfs_->faults().Replug(old_active->id());
  Run(30 * kSecond);
  EXPECT_EQ(old_active->role(), ServerState::kStandby);
  EXPECT_EQ(old_active->tree().Fingerprint(),
            new_active->tree().Fingerprint());
}

TEST_F(FencingClusterTest, ClientRetryCommitsExactlyOnceAcrossFailover) {
  // The op the client retries across a failover must exist exactly once
  // (duplicate suppression) even though two actives processed attempts.
  ASSERT_TRUE(CreateFile("/h/seed").ok());
  core::MdsServer* old_active = cfs_->FindActive(0);
  Status st = Status::TimedOut("pending");
  bool done = false;
  cfs_->client(0).Create("/h/retried", [&](Status s) {
    st = s;
    done = true;
  });
  old_active->Crash();
  testutil::WaitFor(sim_, [&] { return done; }, 60 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(st.ok()) << st.ToString();
  core::MdsServer* active = cfs_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_TRUE(active->tree().Exists("/h/retried"));
  // A second create of the same path by a *different* op is a proper error
  // (so the file exists exactly once, not "at least once").
  Status dup = CreateFile("/h/retried");
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace mams
