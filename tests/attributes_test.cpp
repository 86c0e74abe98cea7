// Tests for the HDFS-style attribute operations (setOwner, setPermission,
// setTimes): tree semantics, journal replay determinism, image round trips,
// and the end-to-end client path including replication to standbys.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cfs.hpp"
#include "core/ops.hpp"
#include "fsns/tree.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams {
namespace {

using journal::OpCode;
using testutil::Rec;

class AttrTreeTest : public ::testing::Test {
 protected:
  ClientOpId Op() { return {.client_id = 1, .op_seq = ++seq_}; }
  std::uint64_t seq_ = 0;
  fsns::Tree tree_;
};

TEST_F(AttrTreeTest, DefaultsAreHdfsLike) {
  ASSERT_TRUE(tree_.Create("/f", 3, 1, Op()).ok());
  auto info = tree_.GetFileInfo("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().permission, 0644);
  EXPECT_EQ(info.value().owner, "hdfs");
}

TEST_F(AttrTreeTest, SetOwnerUpdatesAndJournals) {
  ASSERT_TRUE(tree_.Create("/f", 3, 1, Op()).ok());
  auto rec =
      tree_.Execute(Rec(OpCode::kSetOwner, "/f", 2, Op(), "alice:staff"));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().op, journal::OpCode::kSetOwner);
  EXPECT_EQ(rec.value().path2, "alice:staff");
  EXPECT_EQ(tree_.GetFileInfo("/f").value().owner, "alice:staff");
}

TEST_F(AttrTreeTest, SetPermissionUpdates) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 1, Op())).ok());
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kSetPermission, "/d", 2, Op(), {}, 0750)).ok());
  EXPECT_EQ(tree_.GetFileInfo("/d").value().permission, 0750);
}

TEST_F(AttrTreeTest, SetTimesUpdatesMtime) {
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kSetTimes, "/f", 99, Op())).ok());
  EXPECT_EQ(tree_.GetFileInfo("/f").value().mtime, 99);
}

TEST_F(AttrTreeTest, AttributeOpsOnMissingPathFail) {
  EXPECT_FALSE(
      tree_.Execute(Rec(OpCode::kSetOwner, "/nope", 1, Op(), "x:y")).ok());
  EXPECT_FALSE(
      tree_.Execute(Rec(OpCode::kSetPermission, "/nope", 1, Op(), {}, 0700))
          .ok());
  EXPECT_FALSE(tree_.Execute(Rec(OpCode::kSetTimes, "/nope", 1, Op())).ok());
}

TEST_F(AttrTreeTest, ReplayReproducesAttributes) {
  std::vector<journal::LogRecord> log;
  TxId txid = 0;
  auto run = [&](Result<journal::LogRecord> r) {
    ASSERT_TRUE(r.ok());
    auto rec = std::move(r).value();
    rec.txid = ++txid;
    tree_.set_last_txid(txid);
    log.push_back(rec);
  };
  run(tree_.Create("/f", 3, 1, Op()));
  run(tree_.Execute(Rec(OpCode::kSetOwner, "/f", 2, Op(), "bob:eng")));
  run(tree_.Execute(Rec(OpCode::kSetPermission, "/f", 3, Op(), {}, 0600)));
  run(tree_.Execute(Rec(OpCode::kSetTimes, "/f", 44, Op())));

  fsns::Tree replica;
  for (const auto& rec : log) ASSERT_TRUE(replica.Apply(rec).ok());
  EXPECT_EQ(replica.Fingerprint(), tree_.Fingerprint());
  EXPECT_EQ(replica.GetFileInfo("/f").value().owner, "bob:eng");
  EXPECT_EQ(replica.GetFileInfo("/f").value().permission, 0600);
}

TEST_F(AttrTreeTest, ImageRoundTripKeepsAttributes) {
  ASSERT_TRUE(tree_.Create("/f", 3, 1, Op()).ok());
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kSetOwner, "/f", 2, Op(), "carol:ops")).ok());
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kSetPermission, "/f", 3, Op(), {}, 0400)).ok());
  fsns::Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(tree_.SaveImage()).ok());
  EXPECT_EQ(loaded.Fingerprint(), tree_.Fingerprint());
  EXPECT_EQ(loaded.GetFileInfo("/f").value().owner, "carol:ops");
}

TEST_F(AttrTreeTest, FingerprintSeesAttributeChanges) {
  ASSERT_TRUE(tree_.Create("/f", 3, 1, Op()).ok());
  const auto before = tree_.Fingerprint();
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kSetPermission, "/f", 2, Op(), {}, 0777)).ok());
  EXPECT_NE(tree_.Fingerprint(), before);
}

TEST(RecordForTest, EachRequestFieldLandsInItsRecordField) {
  core::ClientRequestMsg req;
  req.path = "/f";
  req.path2 = "/g";
  req.replication = 3;
  req.owner = "erin:dev";
  req.permission = 0711;
  req.client = {.client_id = 4, .op_seq = 9};

  req.op = core::ClientOp::kSetOwner;
  const journal::LogRecord owner = core::RecordFor(req, 5);
  EXPECT_EQ(owner.op, OpCode::kSetOwner);
  EXPECT_EQ(owner.path, "/f");
  EXPECT_EQ(owner.path2, "erin:dev");
  EXPECT_EQ(owner.replication, 1u);
  EXPECT_EQ(owner.mtime, 5);
  EXPECT_EQ(owner.client.client_id, 4u);
  EXPECT_EQ(owner.client.op_seq, 9u);

  req.op = core::ClientOp::kSetPermission;
  const journal::LogRecord permission = core::RecordFor(req, 6);
  EXPECT_EQ(permission.op, OpCode::kSetPermission);
  EXPECT_EQ(permission.path2, "");
  EXPECT_EQ(permission.replication, 0711u);

  req.op = core::ClientOp::kCreate;
  EXPECT_EQ(core::RecordFor(req, 7).replication, 3u);
  req.op = core::ClientOp::kRename;
  EXPECT_EQ(core::RecordFor(req, 7).path2, "/g");
  EXPECT_EQ(core::RecordFor(req, 7).replication, 1u);
  req.op = core::ClientOp::kAddBlock;
  EXPECT_EQ(core::RecordFor(req, 7).block, 0u);  // execution picks the id
}

// --- end to end ---------------------------------------------------------------

TEST(AttrClusterTest, AttributeOpsReplicateAndSurviveFailover) {
  sim::Simulator sim(91);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  auto& client = cfs.client(0);
  auto sync = [&](auto issue) {
    Status out = Status::TimedOut("pending");
    bool done = false;
    issue([&](Status s) {
      out = s;
      done = true;
    });
    while (!done) sim.RunUntil(sim.Now() + 100 * kMillisecond);
    return out;
  };

  ASSERT_TRUE(sync([&](auto cb) { client.Create("/attr/f", cb); }).ok());
  ASSERT_TRUE(
      sync([&](auto cb) { client.SetOwner("/attr/f", "dave:data", cb); }).ok());
  ASSERT_TRUE(
      sync([&](auto cb) { client.SetPermission("/attr/f", 0640, cb); }).ok());
  sim.RunUntil(sim.Now() + kSecond);

  // Replicated everywhere.
  core::MdsServer* active = cfs.FindActive(0);
  for (std::size_t m = 0; m < cfs.group_size(0); ++m) {
    auto& mds = cfs.mds(0, static_cast<int>(m));
    if (mds.role() != ServerState::kStandby) continue;
    EXPECT_EQ(mds.tree().GetFileInfo("/attr/f").value().owner, "dave:data")
        << mds.name();
  }

  // And they survive a failover.
  active->Crash();
  sim.RunUntil(sim.Now() + 10 * kSecond);
  core::MdsServer* new_active = cfs.FindActive(0);
  ASSERT_NE(new_active, nullptr);
  EXPECT_EQ(new_active->tree().GetFileInfo("/attr/f").value().owner,
            "dave:data");
  EXPECT_EQ(new_active->tree().GetFileInfo("/attr/f").value().permission,
            0640);
}

}  // namespace
}  // namespace mams
