// Shard subsystem tests: PartitionMap invariants and seed routing, client
// redirect on map-epoch bounce, and the migration crash matrix
// (source/destination active killed at each migration stage).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "fsns/path.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::shard {
namespace {

TEST(PartitionMapTest, SeedCoversSpaceExactlyOnce) {
  for (GroupId groups : {1u, 2u, 3u, 4u, 5u, 8u}) {
    PartitionMap map = PartitionMap::Seed(groups);
    ASSERT_TRUE(map.Validate().ok()) << "groups=" << groups;
    EXPECT_EQ(map.epoch(), 1u);
    std::set<GroupId> seen;
    for (std::uint32_t s = 0; s < map.slot_count(); ++s) {
      EXPECT_EQ(map.OwnerOfSlot(s), s % groups);
      seen.insert(map.OwnerOfSlot(s));
    }
    EXPECT_EQ(seen.size(), groups);
  }
}

// Seed routing over group counts that divide the 64-slot space and ones
// that do not (3, 5): every path lands in range, deterministically.
TEST(PartitionMapTest, StableAndInRange) {
  for (GroupId groups : {1u, 3u, 4u, 5u}) {
    const PartitionMap map = PartitionMap::Seed(groups);
    for (const char* p : {"/", "/a/b", "/c", "/deep/nested/file"}) {
      const GroupId g = map.OwnerOf(p);
      EXPECT_LT(g, groups) << p;
      EXPECT_EQ(g, PartitionMap::Seed(groups).OwnerOf(p)) << p;
      EXPECT_LT(map.OwnerOfDir(p), groups) << p;
    }
  }
}

TEST(PartitionMapTest, SiblingsShareAGroup) {
  // Entries hash by their parent, so one directory's children live in one
  // slot — and the directory's own container slot is that same slot.
  for (GroupId groups : {3u, 4u}) {
    const PartitionMap map = PartitionMap::Seed(groups);
    EXPECT_EQ(map.SlotOf("/dir/f1"), map.SlotOf("/dir/f2"));
    EXPECT_EQ(map.OwnerOf("/dir/f1"), map.OwnerOf("/dir/f2"));
    EXPECT_EQ(map.SlotOf("/dir/f1"), map.SlotOfDir("/dir"));
  }
}

TEST(PartitionMapTest, SpreadsDirectoriesAcrossGroups) {
  for (GroupId groups : {2u, 3u, 4u}) {
    const PartitionMap map = PartitionMap::Seed(groups);
    std::set<GroupId> seen;
    for (int i = 0; i < 64; ++i) {
      seen.insert(map.OwnerOfDir("/dir" + std::to_string(i)));
    }
    EXPECT_EQ(seen.size(), groups) << "groups=" << groups;
  }
}

TEST(PartitionMapTest, AssignBumpsEpochAndPreservesCoverage) {
  PartitionMap map = PartitionMap::Seed(2);
  const std::uint64_t e0 = map.epoch();
  map.Assign(5, 1);
  EXPECT_GT(map.epoch(), e0);
  EXPECT_EQ(map.OwnerOfSlot(5), 1u);
  EXPECT_TRUE(map.Validate().ok());
  // Neighbors keep their previous owners.
  EXPECT_EQ(map.OwnerOfSlot(4), 0u);
  EXPECT_EQ(map.OwnerOfSlot(6), 0u);

  // Epoch strictly increases over a chain of reassignments and coverage
  // stays exact after every one.
  std::uint64_t prev = map.epoch();
  for (std::uint32_t slot : {0u, 1u, 62u, 63u, 31u}) {
    map.Assign(slot, 1);
    EXPECT_GT(map.epoch(), prev);
    prev = map.epoch();
    ASSERT_TRUE(map.Validate().ok()) << "after assign " << slot;
  }
}

TEST(PartitionMapTest, SplitAndMergeInvariants) {
  PartitionMap map = PartitionMap::Seed(1);  // single range [0,63]
  ASSERT_EQ(map.ranges().size(), 1u);
  const std::uint64_t e0 = map.epoch();

  map.Split(32);
  EXPECT_EQ(map.ranges().size(), 2u);
  EXPECT_GT(map.epoch(), e0);
  ASSERT_TRUE(map.Validate().ok());

  map.Split(32);  // already a boundary: no-op
  EXPECT_EQ(map.ranges().size(), 2u);

  map.MergeWithNext(0);
  EXPECT_EQ(map.ranges().size(), 1u);
  ASSERT_TRUE(map.Validate().ok());
  EXPECT_EQ(map.ranges()[0].lo, 0u);
  EXPECT_EQ(map.ranges()[0].hi, 63u);
}

TEST(PartitionMapTest, SerializeRoundTrip) {
  PartitionMap map = PartitionMap::Seed(3);
  map.Assign(7, 0);
  map.Assign(40, 2);
  const std::vector<char> bytes = map.Serialize();
  Result<PartitionMap> back = PartitionMap::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), map);
  EXPECT_EQ(back.value().epoch(), map.epoch());

  std::vector<char> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(PartitionMap::Deserialize(truncated).ok());
}

}  // namespace
}  // namespace mams::shard

// --- cluster-level: live migration and cross-group rename ---------------------

namespace mams::cluster {
namespace {

class ShardClusterTest : public ::testing::Test {
 protected:
  void Build(std::uint64_t seed = 7,
             const std::function<void(CfsConfig&)>& tweak = {}) {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    CfsConfig cfg;
    cfg.groups = 2;
    cfg.standbys_per_group = 2;
    cfg.data_servers = 1;
    cfg.clients = 2;
    if (tweak) tweak(cfg);
    cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
    cluster_->Start();
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

  /// Issues one mutation through `issue(callback)` and waits for its answer.
  template <class Issue>
  Status MutateSync(Issue issue, SimTime limit = 60 * kSecond) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    issue([&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, limit);
    return out;
  }

  Status CreateFile(const std::string& path, int client = 0) {
    return MutateSync(
        [&](auto cb) { cluster_->client(client).Create(path, cb); });
  }

  Status MkdirSync(const std::string& path, int client = 0) {
    return MutateSync(
        [&](auto cb) { cluster_->client(client).Mkdir(path, cb); });
  }

  Status DeleteSync(const std::string& path, int client = 0) {
    return MutateSync(
        [&](auto cb) { cluster_->client(client).Delete(path, cb); });
  }

  Status RenameSync(const std::string& src, const std::string& dst,
                    int client = 0) {
    return MutateSync(
        [&](auto cb) { cluster_->client(client).Rename(src, dst, cb); },
        120 * kSecond);
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
    cluster_->client(client).ListDir(
        path, [&](Result<std::vector<std::string>> r) {
          out = std::move(r);
          done = true;
        });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  /// mds.cross_group_renames summed over group `g`'s servers.
  std::uint64_t CrossGroupRenames(GroupId g) {
    std::uint64_t n = 0;
    for (const CfsCluster::MemberInfo& m : cluster_->Members(g)) {
      n += m.server->counters().cross_group_renames;
    }
    return n;
  }

  /// First "<base>N" directory whose *children* land in a slot owned by `g`.
  /// Files hash by their parent directory, so picking the directory picks the
  /// slot — every file inside it shares that slot.
  static std::string DirOwnedBy(GroupId g, const std::string& base,
                                std::uint32_t* slot_out = nullptr) {
    const shard::PartitionMap map = shard::PartitionMap::Seed(2);
    for (int i = 0;; ++i) {
      const std::string d = base + std::to_string(i);
      const std::uint32_t slot = map.SlotOfDir(d);
      if (map.OwnerOfSlot(slot) == g) {
        if (slot_out != nullptr) *slot_out = slot;
        return d;
      }
    }
  }

  /// The first `n` "<parent>/xN" directories whose own children land in
  /// group 1. With `parent` from DirOwnedBy(0), each entry lives in group 0,
  /// so a mkdir of one is a two-group transaction coordinated by group 0.
  static std::vector<std::string> SplitDirs(const std::string& parent,
                                            std::size_t n) {
    const shard::PartitionMap map = shard::PartitionMap::Seed(2);
    std::vector<std::string> out;
    for (int i = 0; out.size() < n; ++i) {
      const std::string p = parent + "/x" + std::to_string(i);
      if (map.OwnerOfDir(p) == 1) out.push_back(p);
    }
    return out;
  }

  /// A "<base>N/xM" directory of a `groups`-group seeded map whose entry
  /// lives in group `entry` and whose children live in group `container`.
  static std::string SplitDir(GroupId groups, GroupId entry,
                              GroupId container, const std::string& base) {
    const shard::PartitionMap map = shard::PartitionMap::Seed(groups);
    for (int i = 0;; ++i) {
      const std::string parent = base + std::to_string(i);
      if (map.OwnerOfDir(parent) != entry) continue;
      for (int j = 0; j < 64; ++j) {
        const std::string d = parent + "/x" + std::to_string(j);
        if (map.OwnerOfDir(d) == container) return d;
      }
    }
  }

  /// A batch of paths that all live in one group-0-owned slot, so a single
  /// migration moves every one of them.
  static std::vector<std::string> SameSlotPaths(std::size_t n,
                                                std::uint32_t* slot_out) {
    const std::string dir = DirOwnedBy(0, "/mig", slot_out);
    std::vector<std::string> paths;
    paths.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      paths.push_back(dir + "/f" + std::to_string(i));
    }
    return paths;
  }

  /// Every path must exist on exactly one group's active (no loss, no
  /// duplication) and be reachable through a client.
  void ExpectExactlyOnce(const std::vector<std::string>& paths) {
    core::MdsServer* a0 = cluster_->FindActive(0);
    core::MdsServer* a1 = cluster_->FindActive(1);
    ASSERT_NE(a0, nullptr);
    ASSERT_NE(a1, nullptr);
    for (const std::string& p : paths) {
      EXPECT_NE(a0->tree().Exists(p), a1->tree().Exists(p)) << p;
      const Result<fsns::FileInfo> r = StatSync(p);
      EXPECT_TRUE(r.ok()) << p << ": " << r.status().ToString();
    }
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
};

TEST_F(ShardClusterTest, MigrationMovesSlotAndStaleClientFollowsBounce) {
  Build();
  std::uint32_t slot = 0;
  const std::vector<std::string> paths = SameSlotPaths(4, &slot);
  for (const std::string& p : paths) {
    ASSERT_TRUE(CreateFile(p).ok()) << p;
  }

  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  Run(10 * kSecond);

  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a1 = cluster_->FindActive(1);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a0->counters().migrations_completed, 1u);
  EXPECT_GT(a0->partition_map().epoch(), 1u);
  EXPECT_EQ(a0->partition_map().OwnerOfSlot(slot), 1u);
  for (const std::string& p : paths) {
    EXPECT_FALSE(a0->tree().Exists(p)) << p;
    EXPECT_TRUE(a1->tree().Exists(p)) << p;
  }
  ASSERT_FALSE(a0->migration_stats().empty());
  const core::MdsServer::MigrationStats& stats = a0->migration_stats().back();
  EXPECT_EQ(stats.slot, slot);
  EXPECT_FALSE(stats.aborted);
  EXPECT_GE(stats.entries, paths.size());

  // Client 1 never wrote, so it still routes by the seeded epoch-1 map; its
  // first read of a migrated path is bounced with the new map and retried
  // against the new owner.
  for (const std::string& p : paths) {
    const Result<fsns::FileInfo> r = StatSync(p, /*client=*/1);
    EXPECT_TRUE(r.ok()) << p << ": " << r.status().ToString();
  }
  EXPECT_GT(cluster_->client(1).counters().shard_bounces, 0u);
  EXPECT_GT(a0->counters().shard_bounces, 0u);
}

TEST_F(ShardClusterTest, MigrationSurvivesSourceActiveCrash) {
  Build();
  std::uint32_t slot = 0;
  const std::vector<std::string> paths = SameSlotPaths(6, &slot);
  for (const std::string& p : paths) {
    ASSERT_TRUE(CreateFile(p).ok()) << p;
  }

  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  cluster_->FindActive(0)->Crash();
  Run(20 * kSecond);  // failover + journal-driven abort or roll-forward

  // Whichever way the new source active resolved the half-done migration,
  // every entry survives exactly once and stays reachable.
  ExpectExactlyOnce(paths);

  // The subsystem is still live: migrating the slot again (from whichever
  // group now owns it) completes cleanly.
  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  Run(10 * kSecond);
  ExpectExactlyOnce(paths);
}

TEST_F(ShardClusterTest, MigrationSurvivesDestinationActiveCrash) {
  Build();
  std::uint32_t slot = 0;
  const std::vector<std::string> paths = SameSlotPaths(6, &slot);
  for (const std::string& p : paths) {
    ASSERT_TRUE(CreateFile(p).ok()) << p;
  }

  ASSERT_TRUE(cluster_->StartShardMigration(slot).ok());
  cluster_->FindActive(1)->Crash();
  Run(30 * kSecond);  // dst failover; source retries against the new active

  ExpectExactlyOnce(paths);
}

TEST_F(ShardClusterTest, ListDirRoutesByTheDirectorysOwnSlot) {
  Build();
  // A directory whose own entry hashes (by its parent) to group 0 while
  // its children hash (by the directory itself) to group 1. Servers admit
  // a listing by the directory's own slot, so the client must send it to
  // group 1; routing it by the entry's slot bounces it until it fails.
  const shard::PartitionMap map = shard::PartitionMap::Seed(2);
  std::string dir;
  for (int i = 0; dir.empty(); ++i) {
    const std::string d = "/lp" + std::to_string(i) + "/d";
    if (map.OwnerOf(d) == 0 && map.OwnerOfDir(d) == 1) dir = d;
  }
  ASSERT_TRUE(CreateFile(dir + "/f").ok());

  const Result<std::vector<std::string>> listing = ListSync(dir);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing.value(), std::vector<std::string>{"f"});
  EXPECT_EQ(cluster_->client(0).counters().shard_bounces, 0u);
}

TEST_F(ShardClusterTest, CrossGroupRenameIsAtomic) {
  Build();
  // Materialize the destination directory on the destination group first:
  // rename never creates ancestors, matching the local path's semantics.
  const std::string rdir = DirOwnedBy(1, "/ren");
  const std::string dst_seed = rdir + "/seed";
  ASSERT_TRUE(CreateFile(dst_seed).ok());
  const std::string src = DirOwnedBy(0, "/mig") + "/f0";
  ASSERT_TRUE(CreateFile(src).ok());
  const std::string dst = rdir + "/moved";

  ASSERT_TRUE(RenameSync(src, dst).ok());

  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a1 = cluster_->FindActive(1);
  EXPECT_FALSE(a0->tree().Exists(src));
  EXPECT_TRUE(a1->tree().Exists(dst));
  EXPECT_EQ(a0->counters().cross_group_renames, 1u);
  EXPECT_TRUE(StatSync(dst).ok());
  EXPECT_EQ(StatSync(src).status().code(), StatusCode::kNotFound);

  // Destination parent must already exist: a rename into a directory that
  // was never created fails with NotFound on both sides of the boundary.
  const std::string src2 = DirOwnedBy(0, "/mig") + "/other";
  ASSERT_TRUE(CreateFile(src2).ok());
  const std::string orphan = DirOwnedBy(1, rdir + "/nowhere") + "/x";
  EXPECT_EQ(RenameSync(src2, orphan).code(), StatusCode::kNotFound);
}

TEST_F(ShardClusterTest, CrossGroupMkdirIsListableAtItsContainerGroup) {
  Build();
  // The entry of `dir` lives in group 0, its children (and so its listing)
  // in group 1: the mkdir must install the directory at both.
  const std::string dir = SplitDirs(DirOwnedBy(0, "/hot"), 1).front();
  ASSERT_TRUE(MkdirSync(dir).ok());

  const Result<std::vector<std::string>> listing = ListSync(dir);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(listing.value().empty());
  const Result<fsns::FileInfo> info = StatSync(dir);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info.value().is_dir);
}

TEST_F(ShardClusterTest, CrossGroupRenameIntoAnEmptyMkdirDirectoryCommits) {
  Build();
  const std::string dir = SplitDirs(DirOwnedBy(0, "/hot"), 1).front();
  ASSERT_TRUE(MkdirSync(dir).ok());
  // The source lives in group 0, the destination entry under `dir` in
  // group 1, which holds no child of `dir` yet.
  const std::string src = DirOwnedBy(0, "/mig") + "/f0";
  ASSERT_TRUE(CreateFile(src).ok());

  const Status renamed = RenameSync(src, dir + "/moved");
  ASSERT_TRUE(renamed.ok()) << renamed.ToString();
  EXPECT_TRUE(StatSync(dir + "/moved").ok());
  const Result<std::vector<std::string>> listing = ListSync(dir);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing.value(), std::vector<std::string>{"moved"});
}

TEST_F(ShardClusterTest, FileDeleteIsSingleGroup) {
  Build();
  // The file's entry lives in group 0, while the slot its path would have
  // as a directory belongs to group 1; group 1 holds nothing of it.
  const std::string file = SplitDirs(DirOwnedBy(0, "/hot"), 1).front();
  ASSERT_TRUE(CreateFile(file).ok());

  const obs::Counter* sent =
      sim_->obs().metrics().counter("net.sent.client_request");
  const std::uint64_t before = sent->value;
  ASSERT_TRUE(DeleteSync(file).ok());
  EXPECT_EQ(sent->value, before + 1);
  EXPECT_EQ(StatSync(file).status().code(), StatusCode::kNotFound);
}

TEST_F(ShardClusterTest, CrossGroupDirectoryDeleteIsRefused) {
  Build();
  // `dir`'s children live in group 1, its entry in group 0: a delete at
  // group 0 cannot remove them, so it must not remove the entry either.
  const std::vector<std::string> dirs = SplitDirs(DirOwnedBy(0, "/hot"), 2);
  const std::string& dir = dirs[0];
  ASSERT_TRUE(MkdirSync(dir).ok());
  ASSERT_TRUE(CreateFile(dir + "/kid").ok());

  EXPECT_EQ(DeleteSync(dir).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(StatSync(dir).ok());
  const Result<fsns::FileInfo> kid = StatSync(dir + "/kid");
  EXPECT_TRUE(kid.ok()) << kid.status().ToString();

  // Group 0 cannot see whether group 1 holds children, so an empty
  // directory split across the two groups is refused too, and stays.
  const std::string& empty = dirs[1];
  ASSERT_TRUE(MkdirSync(empty).ok());
  EXPECT_EQ(DeleteSync(empty).code(), StatusCode::kFailedPrecondition);
  const Result<std::vector<std::string>> listing = ListSync(empty);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(listing.value().empty());
}

TEST_F(ShardClusterTest, CrossGroupRenameWaitsForAPendingMkdirOfItsName) {
  Build(7, [](CfsConfig& cfg) { cfg.groups = 3; });
  // `dir`'s entry lives in group 0 and its children in group 2; the rename
  // into `dir`'s name comes from group 1.
  const std::string dir = SplitDir(3, 0, 2, "/w");
  const shard::PartitionMap map = shard::PartitionMap::Seed(3);
  std::string src;
  for (int i = 0; src.empty(); ++i) {
    const std::string d = "/s" + std::to_string(i);
    if (map.OwnerOfDir(d) == 1) src = d + "/f";
  }
  ASSERT_TRUE(CreateFile(std::string(fsns::ParentDir(dir)) + "/seed").ok());
  ASSERT_TRUE(CreateFile(src, /*client=*/1).ok());
  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a2 = cluster_->FindActive(2);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(a2, nullptr);

  // Group 0 cannot reach group 2, so the mkdir stays between its intent
  // and its finish while the rename's commit reaches group 0.
  net_->Partition(a0->id(), a2->id());
  Status made = Status::TimedOut("no reply");
  Status moved = Status::TimedOut("no reply");
  bool made_done = false;
  bool moved_done = false;
  cluster_->client(0).Mkdir(dir, [&](Status s) {
    made = s;
    made_done = true;
  });
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return a0->tree().shard().tx_intents.contains(dir); },
      kSecond, 10 * kMicrosecond));
  cluster_->client(1).Rename(src, dir, [&](Status s) {
    moved = s;
    moved_done = true;
  });
  Run(2 * kSecond);
  // The name is promised to the directory: the file may not take it.
  EXPECT_FALSE(moved_done);
  EXPECT_FALSE(a0->tree().Exists(dir));

  net_->HealAll();
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return made_done && moved_done; }, 120 * kSecond));
  EXPECT_TRUE(made.ok()) << made.ToString();
  EXPECT_EQ(moved.code(), StatusCode::kAlreadyExists) << moved.ToString();
  const Result<fsns::FileInfo> info = StatSync(dir);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info.value().is_dir);
  const Result<std::vector<std::string>> listing = ListSync(dir);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(listing.value().empty());
  EXPECT_TRUE(StatSync(src).ok());
}

TEST_F(ShardClusterTest, EmptyCrossGroupMkdirMovesWithItsContainerSlot) {
  Build(7, [](CfsConfig& cfg) { cfg.groups = 3; });
  // The entry stays in group 0; the container slot moves from group 1 to
  // group 2, which must then answer the listing.
  const std::string dir = SplitDir(3, 0, 1, "/e");
  ASSERT_TRUE(MkdirSync(dir).ok());
  const std::uint32_t slot = shard::PartitionMap::Seed(3).SlotOfDir(dir);

  ASSERT_TRUE(cluster_->StartShardMigration(slot, /*dst=*/2).ok());
  Run(10 * kSecond);

  core::MdsServer* a1 = cluster_->FindActive(1);
  core::MdsServer* a2 = cluster_->FindActive(2);
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a1->counters().migrations_completed, 1u);
  EXPECT_EQ(a2->partition_map().OwnerOfSlot(slot), 2u);
  EXPECT_TRUE(a2->tree().Exists(dir));
  const Result<std::vector<std::string>> listing = ListSync(dir, 1);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(listing.value().empty());
}

TEST_F(ShardClusterTest, CrossGroupMkdirsCommitThroughAFullCommitWindow) {
  Build();
  const std::string hot = DirOwnedBy(0, "/hot");
  const std::vector<std::string> dirs = SplitDirs(hot, 8);

  // 32 closed-loop sessions creating in `hot` keep group 0's four commit
  // slots busy, so the transactions' intents wait for a slot to seal.
  core::MdsServer* a0 = cluster_->FindActive(0);
  ASSERT_NE(a0, nullptr);
  bool load_on = true;
  int next_file = 0;
  std::function<void()> load = [&] {
    if (!load_on) return;
    cluster_->client(1).Create(hot + "/f" + std::to_string(next_file++),
                               [&](Status) { load(); });
  };
  for (int s = 0; s < 32; ++s) load();

  int issued_into_full_window = 0;
  for (const std::string& p : dirs) {
    if (testutil::WaitFor(
            *sim_, [&] { return a0->commit_queue_depth() >= 4; }, kSecond,
            10 * kMicrosecond)) {
      ++issued_into_full_window;
    }
    EXPECT_TRUE(MutateSync(
                    [&](auto cb) { cluster_->client(0).Mkdir(p, cb); },
                    30 * kSecond)
                    .ok())
        << p;
  }
  load_on = false;
  Run(2 * kSecond);

  EXPECT_EQ(issued_into_full_window, 8);
  EXPECT_GT(a0->counters().pipeline_deferred, 0u);
  core::MdsServer* a1 = cluster_->FindActive(1);
  ASSERT_NE(a1, nullptr);
  for (const std::string& p : dirs) {
    EXPECT_TRUE(a0->tree().Exists(p)) << p;
    EXPECT_TRUE(a1->tree().Exists(p)) << p;
    const Result<fsns::FileInfo> r = StatSync(p, /*client=*/1);
    ASSERT_TRUE(r.ok()) << p << ": " << r.status().ToString();
    EXPECT_TRUE(r.value().is_dir) << p;
    EXPECT_TRUE(ListSync(p, /*client=*/1).ok()) << p;
  }
}

/// The two-group transaction's rows, each run through the entry group's
/// failover: a mkdir whose children live in group 1, and a rename of a
/// group-0 file into a group-1 directory.
struct TwoGroupCase {
  const char* name;
  core::ClientOp op;
};

void PrintTo(const TwoGroupCase& c, std::ostream* os) { *os << c.name; }

class DeposedCoordinatorTest
    : public ShardClusterTest,
      public ::testing::WithParamInterface<TwoGroupCase> {};

TEST_P(DeposedCoordinatorTest, DoesNotRunTheEntryHalf) {
  Build();
  const bool rename = GetParam().op == core::ClientOp::kRename;
  // `key` is the transaction's entry at group 0; group 1 installs `peer`.
  std::string key;
  std::string peer;
  if (rename) {
    const std::string rdir = DirOwnedBy(1, "/ren");
    ASSERT_TRUE(CreateFile(rdir + "/seed").ok());
    key = DirOwnedBy(0, "/mig") + "/f0";
    ASSERT_TRUE(CreateFile(key).ok());
    peer = rdir + "/moved";
  } else {
    const std::string hot = DirOwnedBy(0, "/hot");
    ASSERT_TRUE(CreateFile(hot + "/seed").ok());
    key = peer = SplitDirs(hot, 1).front();
  }
  core::MdsServer* a0 = cluster_->FindActive(0);
  ASSERT_NE(a0, nullptr);

  // Wait until a0 has journaled the intent and sent the commit leg to
  // group 1.
  const obs::Counter* legs =
      sim_->obs().metrics().counter("net.sent.shard_control");
  const std::uint64_t before = legs->value;
  Status out = Status::TimedOut("no reply");
  bool done = false;
  auto answer = [&](Status s) {
    out = s;
    done = true;
  };
  if (rename) {
    cluster_->client(0).Rename(key, peer, answer);
  } else {
    cluster_->client(0).Mkdir(key, answer);
  }
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return legs->value > before; }, kSecond,
      10 * kMicrosecond));

  // A registration round from a newer fence deposes a0 before the leg's ack
  // returns; the ack must not run the entry group's half on the deposed
  // server: no mkdir there, and no erase of the rename's source.
  net::Host rival(*net_, "rival");
  rival.Boot();
  auto reg = std::make_shared<core::GroupRegisterMsg>();
  reg->fence = a0->fence() + 1;
  reg->active_sn = a0->last_sn();
  reg->discard_ahead = false;
  rival.Send(a0->id(), reg);
  Run(50 * kMillisecond);

  EXPECT_NE(a0->role(), ServerState::kActive);
  EXPECT_EQ(a0->tree().Exists(key), rename);
  // The next group-0 active resumes the journaled intent; the client's
  // retry is fenced until it finishes, then answered from the dedup table.
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond));
  EXPECT_TRUE(out.ok()) << out.ToString();
  Run(5 * kSecond);  // let the finish replicate

  core::MdsServer* g0 = cluster_->FindActive(0);
  core::MdsServer* g1 = cluster_->FindActive(1);
  ASSERT_NE(g0, nullptr);
  ASSERT_NE(g1, nullptr);
  EXPECT_TRUE(g0->tree().shard().tx_intents.empty());
  EXPECT_EQ(g0->tree().Exists(key), !rename);
  EXPECT_TRUE(g1->tree().Exists(peer));
  // Exactly once: group 1 journaled one commit for the transaction.
  int commits = 0;
  for (const core::BatchPtr& b : g1->recent_batches()) {
    for (const journal::LogRecord& rec : b->records) {
      if (rec.op == journal::OpCode::kTxCommit && rec.path == peer) ++commits;
    }
  }
  EXPECT_EQ(commits, 1);
  // The resumed finish counts the rename though its client is gone.
  EXPECT_EQ(CrossGroupRenames(0), rename ? 1u : 0u);
  if (rename) {
    EXPECT_TRUE(StatSync(peer).ok());
    EXPECT_EQ(StatSync(key).status().code(), StatusCode::kNotFound);
  } else {
    const Result<std::vector<std::string>> listing = ListSync(key);
    ASSERT_TRUE(listing.ok()) << listing.status().ToString();
    EXPECT_TRUE(listing.value().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, DeposedCoordinatorTest,
    ::testing::Values(TwoGroupCase{"mkdir", core::ClientOp::kMkdir},
                      TwoGroupCase{"rename", core::ClientOp::kRename}),
    [](const ::testing::TestParamInfo<TwoGroupCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(ShardClusterTest, CrossGroupRenameSurvivesDestinationCrash) {
  Build();
  const std::string rdir = DirOwnedBy(1, "/ren");
  const std::string dst_seed = rdir + "/seed";
  ASSERT_TRUE(CreateFile(dst_seed).ok());
  const std::string src = DirOwnedBy(0, "/mig") + "/f0";
  ASSERT_TRUE(CreateFile(src).ok());
  const std::string dst = rdir + "/moved";

  // Crash the destination active while the rename is in flight. The source
  // keeps the journaled intent and retries the commit against whoever wins
  // the destination election; the client's own retry rides the dedup table.
  Status result = Status::TimedOut("pending");
  bool done = false;
  cluster_->client(0).Rename(src, dst, [&](Status s) {
    result = s;
    done = true;
  });
  cluster_->FindActive(1)->Crash();
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return done; }, 120 * kSecond));
  EXPECT_TRUE(result.ok()) << result.ToString();

  Run(5 * kSecond);  // let the finish record replicate
  core::MdsServer* a0 = cluster_->FindActive(0);
  core::MdsServer* a1 = cluster_->FindActive(1);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(a1, nullptr);
  EXPECT_FALSE(a0->tree().Exists(src));
  EXPECT_TRUE(a1->tree().Exists(dst));
  EXPECT_EQ(CrossGroupRenames(0), 1u);
  EXPECT_TRUE(StatSync(dst).ok());
  EXPECT_EQ(StatSync(src).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mams::cluster
