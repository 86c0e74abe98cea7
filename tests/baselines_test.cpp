// Tests for the baseline systems: vanilla HDFS, BackupNode, AvatarNode and
// Hadoop HA (QJM) as one shared-edits NameNode, and Boom-FS. Each baseline
// must serve metadata in the failure-free case and recover per its own
// mechanism — with the cost structure Table I and Figure 6 depend on
// (BackupNode's recollection grows with block count; Avatar/HA are flat;
// Boom-FS pays consensus on every op).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/systems.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::baselines {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : sim_(13), net_(sim_) {}

  void Run(SimTime dt) { sim_.RunUntil(sim_.Now() + dt); }

  template <typename Client>
  Status CreateSync(Client& client, const std::string& path,
                    SimTime budget = 240 * kSecond) {
    Status out = Status::TimedOut("pending");
    bool done = false;
    client.Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    const SimTime deadline = sim_.Now() + budget;
    while (!done && sim_.Now() < deadline) Run(100 * kMillisecond);
    return out;
  }

  sim::Simulator sim_;
  net::Network net_;
};

// --- vanilla HDFS --------------------------------------------------------

TEST_F(BaselineTest, HdfsServesMetadata) {
  HdfsSystem hdfs(net_);
  Run(kSecond);
  EXPECT_TRUE(CreateSync(hdfs.client(0), "/a/b").ok());
  EXPECT_TRUE(hdfs.namenode().tree().Exists("/a/b"));
  bool ok = false;
  hdfs.client(1).GetFileInfo("/a/b", [&](Status s) { ok = s.ok(); });
  Run(kSecond);
  EXPECT_TRUE(ok);
}

TEST_F(BaselineTest, HdfsHasNoFailover) {
  HdfsSystem hdfs(net_);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(hdfs.client(0), "/x").ok());
  hdfs.namenode().Crash();
  Status st = CreateSync(hdfs.client(0), "/y", 30 * kSecond);
  EXPECT_FALSE(st.ok());  // single point of failure, as the paper says
}

// --- BackupNode -----------------------------------------------------------

TEST_F(BaselineTest, BackupNodeStreamsJournalToBackup) {
  BackupNodeSystem::Options opts;
  opts.total_blocks = 1000;
  BackupNodeSystem bn(net_, opts);
  Run(kSecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateSync(bn.client(0), "/d/f" + std::to_string(i)).ok());
  }
  Run(2 * kSecond);
  EXPECT_EQ(bn.backup().tree().Fingerprint(),
            bn.primary().tree().Fingerprint());
  EXPECT_FALSE(bn.backup().serving());
}

TEST_F(BaselineTest, BackupNodeTakesOverAfterRecollection) {
  BackupNodeSystem::Options opts;
  opts.total_blocks = 10000;
  BackupNodeSystem bn(net_, opts);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(bn.client(0), "/pre").ok());
  bn.KillPrimary();
  Status st = CreateSync(bn.client(0), "/post", 120 * kSecond);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(bn.backup().serving());
  EXPECT_TRUE(bn.backup().tree().Exists("/pre"));
  EXPECT_GE(bn.backup().ingested_blocks(), opts.total_blocks);
}

TEST_F(BaselineTest, BackupNodeRecoveryScalesWithBlockCount) {
  auto takeover_time = [&](std::uint64_t blocks) {
    sim::Simulator sim(29);
    net::Network net(sim);
    BackupNodeSystem::Options opts;
    opts.total_blocks = blocks;
    BackupNodeSystem bn(net, opts);
    sim.RunUntil(sim.Now() + kSecond);
    const SimTime killed = sim.Now();
    bn.KillPrimary();
    while (!bn.backup().serving() && sim.Now() < killed + 600 * kSecond) {
      sim.RunUntil(sim.Now() + 500 * kMillisecond);
    }
    return sim.Now() - killed;
  };
  const SimTime small = takeover_time(100'000);
  const SimTime large = takeover_time(1'000'000);
  EXPECT_GT(large, 3 * small);  // Table I's linear growth
}

// --- AvatarNode and Hadoop HA (one shared-edits NameNode) -----------------

TEST_F(BaselineTest, AvatarStandbyTailsNfsEdits) {
  SharedEditsSystem avatar(net_, kAvatar);
  Run(kSecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateSync(avatar.client(0), "/a/f" + std::to_string(i)).ok());
  }
  Run(2 * kSecond);  // a few tail intervals
  EXPECT_EQ(avatar.standby().tree().Fingerprint(),
            avatar.active().tree().Fingerprint());
}

TEST_F(BaselineTest, AvatarFailoverIsFlatButSlow) {
  SharedEditsSystem avatar(net_, kAvatar);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(avatar.client(0), "/pre").ok());
  const SimTime killed = sim_.Now();
  avatar.KillPrimary();
  Status st = CreateSync(avatar.client(0), "/post", 120 * kSecond);
  EXPECT_TRUE(st.ok()) << st.ToString();
  const double secs = ToSeconds(sim_.Now() - killed);
  EXPECT_GT(secs, 20.0);  // detection + final tail + admin switch
  EXPECT_LT(secs, 45.0);
  EXPECT_TRUE(avatar.standby().tree().Exists("/pre"));
}

TEST_F(BaselineTest, AvatarTakeoverWaitsUntilTheFinalTailReachesTheEnd) {
  // The standby loses the filer right after an acknowledged create, before
  // its periodic tail fetched it. A failed final read is not the end of
  // the log: the standby must keep trying and serve only with /acked.
  SharedEditsSystem avatar(net_, kAvatar);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(avatar.client(0), "/acked").ok());
  const NodeId standby = avatar.standby().id();
  const NodeId filer = avatar.log_node(0).id();
  net_.Partition(standby, filer);
  avatar.KillPrimary();
  Run(60 * kSecond);
  EXPECT_FALSE(avatar.standby().serving());
  net_.Heal(standby, filer);
  Run(60 * kSecond);
  EXPECT_TRUE(avatar.standby().serving());
  EXPECT_TRUE(avatar.standby().tree().Exists("/acked"));
}

TEST_F(BaselineTest, HadoopHaQuorumWriteAndTail) {
  SharedEditsSystem ha(net_, kHadoopHa);
  Run(kSecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateSync(ha.client(0), "/h/f" + std::to_string(i)).ok());
  }
  Run(5 * kSecond);  // standby tail interval is 2 s
  EXPECT_EQ(ha.standby().tree().Fingerprint(),
            ha.active().tree().Fingerprint());
}

TEST_F(BaselineTest, HadoopHaFailoverWithinPaperRange) {
  SharedEditsSystem ha(net_, kHadoopHa);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(ha.client(0), "/pre").ok());
  const SimTime killed = sim_.Now();
  ha.KillPrimary();
  Status st = CreateSync(ha.client(0), "/post", 120 * kSecond);
  EXPECT_TRUE(st.ok()) << st.ToString();
  const double secs = ToSeconds(sim_.Now() - killed);
  EXPECT_GT(secs, 8.0);
  EXPECT_LT(secs, 30.0);
  EXPECT_TRUE(ha.standby().tree().Exists("/pre"));
}

TEST_F(BaselineTest, HadoopHaTakeoverRetriesAfterEveryJournalNodeFailed) {
  // The standby is cut from all four JournalNodes across its final tail.
  // Once every node failed it must start over from the first one, and
  // serve after the cut heals.
  SharedEditsSystem ha(net_, kHadoopHa);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(ha.client(0), "/acked").ok());
  const NodeId standby = ha.standby().id();
  for (int j = 0; j < kHadoopHa.log_nodes; ++j) {
    net_.Partition(standby, ha.log_node(j).id());
  }
  ha.KillPrimary();
  Run(30 * kSecond);
  EXPECT_FALSE(ha.standby().serving());
  for (int j = 0; j < kHadoopHa.log_nodes; ++j) {
    net_.Heal(standby, ha.log_node(j).id());
  }
  Run(60 * kSecond);
  EXPECT_TRUE(ha.standby().serving());
  EXPECT_TRUE(ha.standby().tree().Exists("/acked"));
}

TEST_F(BaselineTest, HadoopHaSurvivesOneJournalNodeFailure) {
  SharedEditsSystem ha(net_, kHadoopHa);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(ha.client(0), "/before-jn-death").ok());
  // JournalNode 0 is the first node every standby tail pass reads.
  ha.log_node(0).Crash();
  // Creates commit on the 3 live nodes of 4 without waiting out the
  // dead node's write timeout.
  const SimTime start = sim_.Now();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CreateSync(ha.client(0), "/h/f" + std::to_string(i)).ok());
  }
  EXPECT_LT(sim_.Now() - start, 3 * kSecond);
  // Each tail pass times out on JournalNode 0 and rotates to the next.
  Run(10 * kSecond);
  EXPECT_TRUE(ha.standby().tree().Exists("/h/f4"));
  EXPECT_EQ(ha.standby().tree().Fingerprint(),
            ha.active().tree().Fingerprint());
}

// --- Boom-FS ---------------------------------------------------------------

TEST_F(BaselineTest, BoomFsReplicatesThroughPaxos) {
  BoomFsSystem boom(net_);
  Run(kSecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateSync(boom.client(0), "/b/f" + std::to_string(i)).ok());
  }
  Run(kSecond);
  // All three replicas applied the same log.
  EXPECT_EQ(boom.server(0).tree().Fingerprint(),
            boom.server(1).tree().Fingerprint());
  EXPECT_EQ(boom.server(1).tree().Fingerprint(),
            boom.server(2).tree().Fingerprint());
}

TEST_F(BaselineTest, BoomFsMasterFailoverPromotesReplica) {
  BoomFsSystem boom(net_);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(boom.client(0), "/pre").ok());
  const SimTime killed = sim_.Now();
  boom.KillMaster();
  Status st = CreateSync(boom.client(0), "/post", 120 * kSecond);
  EXPECT_TRUE(st.ok()) << st.ToString();
  const double secs = ToSeconds(sim_.Now() - killed);
  EXPECT_GT(secs, 10.0);  // centralized repair decision dominates
  EXPECT_TRUE(boom.server(1).master());
  EXPECT_TRUE(boom.server(1).tree().Exists("/pre"));
}

TEST_F(BaselineTest, BoomFsReadsServedByMaster) {
  BoomFsSystem boom(net_);
  Run(kSecond);
  ASSERT_TRUE(CreateSync(boom.client(0), "/r").ok());
  bool ok = false;
  boom.client(1).GetFileInfo("/r", [&](Status s) { ok = s.ok(); });
  Run(kSecond);
  EXPECT_TRUE(ok);
}

// --- one op path ------------------------------------------------------------

TEST_F(BaselineTest, EveryMutationLandsAlikeOnCfsHdfsAndBoomFs) {
  // One raw request stream covering all ten mutations (and a resend) goes
  // to a CFS active, an HDFS namenode and the Boom-FS master. Each server
  // executes it on its own path, so every attribute the stream touches
  // must read back the same from all three.
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net_, cfg);
  cfs.Start();
  HdfsSystem hdfs(net_, /*clients=*/1, /*data_servers=*/1);
  BoomFsSystem boom(net_);
  net::Host sender(net_, "raw-client");
  sender.Boot();
  ASSERT_TRUE(testutil::WaitFor(
      sim_, [&] { return cfs.FindActive(0) != nullptr; }, 10 * kSecond));
  const std::vector<NodeId> servers{cfs.FindActive(0)->id(),
                                    hdfs.namenode().id(), boom.server(0).id()};
  const char* const names[] = {"cfs", "hdfs", "boomfs"};

  using Reply = std::shared_ptr<const core::ClientResponseMsg>;
  // Sends `req` to every server, one reply awaited at a time.
  auto send = [&](std::shared_ptr<core::ClientRequestMsg> req) {
    std::vector<Reply> replies;
    for (NodeId server : servers) {
      bool done = false;
      Reply reply;
      sender.Call(server, req, 10 * kSecond, [&](Result<net::MessagePtr> r) {
        if (r.ok()) {
          reply = std::static_pointer_cast<const core::ClientResponseMsg>(
              r.value());
        }
        done = true;
      });
      EXPECT_TRUE(testutil::WaitFor(sim_, [&] { return done; }, 20 * kSecond));
      replies.push_back(std::move(reply));
    }
    return replies;
  };
  std::uint64_t seq = 0;
  auto request = [&](core::ClientOp op, const std::string& path) {
    auto req = std::make_shared<core::ClientRequestMsg>();
    req->op = op;
    req->path = path;
    req->client = {.client_id = 99, .op_seq = ++seq};
    return req;
  };
  auto mutate = [&](std::shared_ptr<core::ClientRequestMsg> req) {
    const auto replies = send(req);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      ASSERT_NE(replies[i], nullptr) << names[i] << " " << req->path;
      EXPECT_TRUE(replies[i]->ok)
          << names[i] << " op " << static_cast<int>(req->op) << " "
          << req->path << ": " << replies[i]->error;
    }
  };

  using core::ClientOp;
  mutate(request(ClientOp::kMkdir, "/t/d"));
  mutate(request(ClientOp::kMkdir, "/t/e"));
  auto create_f = request(ClientOp::kCreate, "/t/d/f");
  create_f->replication = 2;
  mutate(create_f);
  mutate(request(ClientOp::kCreate, "/t/d/g"));
  mutate(request(ClientOp::kAddBlock, "/t/d/f"));
  auto add_block = request(ClientOp::kAddBlock, "/t/d/f");
  mutate(add_block);
  mutate(add_block);  // a resend: acknowledged, not executed again
  mutate(request(ClientOp::kCompleteFile, "/t/d/f"));
  auto set_replication = request(ClientOp::kSetReplication, "/t/d/g");
  set_replication->replication = 5;
  mutate(set_replication);
  auto set_owner = request(ClientOp::kSetOwner, "/t/d/f");
  set_owner->owner = "alice:staff";
  mutate(set_owner);
  auto set_permission = request(ClientOp::kSetPermission, "/t/d");
  set_permission->permission = 0750;
  mutate(set_permission);
  mutate(request(ClientOp::kSetTimes, "/t/d/g"));
  auto rename = request(ClientOp::kRename, "/t/d/g");
  rename->path2 = "/t/e/h";
  mutate(rename);
  mutate(request(ClientOp::kCreate, "/t/d/x"));
  mutate(request(ClientOp::kDelete, "/t/d/x"));

  for (const char* path :
       {"/t", "/t/d", "/t/d/f", "/t/d/g", "/t/d/x", "/t/e", "/t/e/h"}) {
    const auto replies = send(request(ClientOp::kGetFileInfo, path));
    ASSERT_NE(replies[0], nullptr) << path;
    const core::ClientResponseMsg& want = *replies[0];
    for (std::size_t i = 1; i < replies.size(); ++i) {
      ASSERT_NE(replies[i], nullptr) << names[i] << " " << path;
      const core::ClientResponseMsg& got = *replies[i];
      EXPECT_EQ(got.ok, want.ok) << names[i] << " " << path;
      EXPECT_EQ(got.code, want.code) << names[i] << " " << path;
      EXPECT_EQ(got.info.is_dir, want.info.is_dir) << names[i] << " " << path;
      EXPECT_EQ(got.info.owner, want.info.owner) << names[i] << " " << path;
      EXPECT_EQ(got.info.permission, want.info.permission)
          << names[i] << " " << path;
      EXPECT_EQ(got.info.replication, want.info.replication)
          << names[i] << " " << path;
      EXPECT_EQ(got.info.block_count, want.info.block_count)
          << names[i] << " " << path;
      EXPECT_EQ(got.info.complete, want.info.complete)
          << names[i] << " " << path;
    }
  }
  // And the agreed state is the one the stream asked for.
  auto info = [&](const std::string& path) {
    return send(request(ClientOp::kGetFileInfo, path))[0]->info;
  };
  EXPECT_EQ(info("/t/d/f").owner, "alice:staff");
  EXPECT_EQ(info("/t/d/f").replication, 2u);
  EXPECT_EQ(info("/t/d/f").block_count, 2u);
  EXPECT_TRUE(info("/t/d/f").complete);
  EXPECT_EQ(info("/t/d").permission, 0750);
  EXPECT_EQ(info("/t/e/h").replication, 5u);
  EXPECT_FALSE(info("/t/e/h").complete);
}

}  // namespace
}  // namespace mams::baselines
