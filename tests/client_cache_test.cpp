// End-to-end tests for the client-side lease-protected namespace cache:
// revocation ordering against conflicting acks, revocation pushes that
// bypass the coordination service, the TTL backstop for lost revocations,
// lease flush across failover, shard-migration invalidation, a writer's
// own patched lines, one refill in flight per directory, renewal of hot
// lines on the reads bound for the active, and cached==uncached
// equivalence under the fuzzer's full fault palette (with the lease_revoke
// mutation proving the checker would catch a cache that serves past a
// revocation).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"
#include "cluster/cfs.hpp"
#include "coord/messages.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::cluster {
namespace {

class ClientCacheTest : public ::testing::Test {
 protected:
  void Build(GroupId groups, int standbys, std::uint64_t seed = 7,
             const std::function<void(CfsConfig&)>& tweak = {}) {
    // A rebuild tears the previous stack down top to bottom first.
    cluster_.reset();
    net_.reset();
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<net::Network>(*sim_);
    CfsConfig cfg;
    cfg.groups = groups;
    cfg.standbys_per_group = standbys;
    cfg.data_servers = 1;
    cfg.clients = 2;
    cfg.mds.client_leases.grant_leases = true;
    cfg.client.cache.enabled = true;
    if (tweak) tweak(cfg);
    cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
    cluster_->Start();
    sim_->RunUntil(sim_->Now() + kSecond);
  }

  void Run(SimTime dt) { sim_->RunUntil(sim_->Now() + dt); }

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

  /// Creates `dir`/f0 .. f<n-1> as `client`; true when every create
  /// succeeded.
  bool CreateMany(const std::string& dir, int n, int client) {
    return InRounds(n, [&](int i, FsClient::OpCallback done) {
      cluster_->client(client).Create(dir + "/f" + std::to_string(i),
                                      std::move(done));
    });
  }

  /// Deletes each of `paths` as `client`; true when every delete succeeded.
  bool DeleteMany(const std::vector<std::string>& paths, int client) {
    return InRounds(static_cast<int>(paths.size()),
                    [&](int i, FsClient::OpCallback done) {
                      cluster_->client(client).Delete(paths[i],
                                                      std::move(done));
                    });
  }

  /// Runs mutations `op(0)` .. `op(n-1)` in rounds well inside the
  /// server's per-client dedup window; true when every one succeeded.
  bool InRounds(int n,
                const std::function<void(int, FsClient::OpCallback)>& op) {
    int done = 0;
    for (int i = 0; i < n;) {
      const int round = done;
      int issued = 0;
      for (; i < n && issued < 100; ++i, ++issued) {
        op(i, [&](Status s) { done += s.ok() ? 1 : 0; });
      }
      if (!testutil::WaitFor(
              *sim_, [&] { return done == round + issued; }, 10 * kSecond,
              kMillisecond)) {
        return false;
      }
    }
    return true;
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

  Status AddBlockSync(const std::string& path, int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).AddBlock(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Status DeleteSync(const std::string& path, int client = 0) {
    Status out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).Delete(path, [&](Status s) {
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

  Result<fsns::FileInfo> StatSync(const std::string& path, int client = 0,
                                  ReadOptions ro = {}) {
    Result<fsns::FileInfo> out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).GetFileInfo(
        path,
        [&](Result<fsns::FileInfo> r) {
          out = std::move(r);
          done = true;
        },
        ro);
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  Result<std::vector<std::string>> ListSync(const std::string& path,
                                            int client = 0,
                                            ReadOptions ro = {}) {
    Result<std::vector<std::string>> out = Status::TimedOut("no reply");
    bool done = false;
    cluster_->client(client).ListDir(
        path,
        [&](Result<std::vector<std::string>> r) {
          out = std::move(r);
          done = true;
        },
        ro);
    testutil::WaitFor(*sim_, [&] { return done; }, 60 * kSecond);
    return out;
  }

  /// Stats `path` as `client`, and with require_active as the other
  /// client (whose reply cannot refill `client`'s line), and expects the
  /// same answer; returns whether `client`'s came from its cache.
  bool StatMatchesActive(const std::string& path, int client = 0) {
    const Result<fsns::FileInfo> got = StatSync(path, client);
    const bool via_cache = cluster_->client(client).last_stamp().via_cache;
    const Result<fsns::FileInfo> truth =
        StatSync(path, 1 - client, {.require_active = true});
    EXPECT_EQ(got.status().code(), truth.status().code()) << path;
    if (got.ok() && truth.ok()) {
      const fsns::FileInfo& a = got.value();
      const fsns::FileInfo& b = truth.value();
      EXPECT_EQ(std::tie(a.path, a.is_dir, a.replication, a.permission,
                         a.owner, a.mtime, a.block_count, a.complete),
                std::tie(b.path, b.is_dir, b.replication, b.permission,
                         b.owner, b.mtime, b.block_count, b.complete))
          << path;
    }
    return via_cache;
  }

  /// ListSync's counterpart of StatMatchesActive.
  bool ListMatchesActive(const std::string& path, int client = 0) {
    const Result<std::vector<std::string>> got = ListSync(path, client);
    const bool via_cache = cluster_->client(client).last_stamp().via_cache;
    const Result<std::vector<std::string>> truth =
        ListSync(path, 1 - client, {.require_active = true});
    EXPECT_TRUE(got.ok() && truth.ok()) << path;
    if (got.ok() && truth.ok()) {
      EXPECT_EQ(got.value(), truth.value()) << path;
    }
    return via_cache;
  }

  /// The one page `client`'s line on `dir` serves from, or null.
  std::shared_ptr<const core::DirSnapshot> CachedFill(const std::string& dir,
                                                      int client) {
    const auto pages = cluster_->client(client).cached_pages(dir);
    return pages.size() == 1 ? pages[0] : nullptr;
  }

  /// The names CreateMany gives `n` children, in the order pages hold them.
  static std::vector<std::string> SortedNames(int n) {
    std::vector<std::string> names;
    for (int i = 0; i < n; ++i) names.push_back("f" + std::to_string(i));
    std::sort(names.begin(), names.end());
    return names;
  }

  std::uint64_t CounterValue(const char* name) {
    return sim_->obs().metrics().counter(name)->value;
  }

  std::int64_t FillBytes() {
    return sim_->obs().metrics().gauge("mds.fill_snapshot_bytes")->value;
  }

  static bool Contains(const std::vector<std::string>& names,
                       const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  std::uint64_t TotalLeasesGranted(GroupId g = 0) {
    std::uint64_t n = 0;
    for (std::size_t m = 0; m < cluster_->group_size(g); ++m) {
      n += cluster_->mds(g, static_cast<int>(m)).counters().leases_granted;
    }
    return n;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
};

TEST_F(ClientCacheTest, RepeatReadsAreServedLocallyUnderLease) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());

  const Result<std::vector<std::string>> first = ListSync("/d");
  ASSERT_TRUE(first.ok());
  const auto misses = cluster_->client(0).counters().cache_misses;
  const Result<std::vector<std::string>> second = ListSync("/d");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());

  EXPECT_GE(cluster_->client(0).counters().cache_hits, 1u);
  EXPECT_EQ(cluster_->client(0).counters().cache_misses, misses);
  EXPECT_TRUE(cluster_->client(0).last_stamp().via_cache);
  EXPECT_GE(TotalLeasesGranted(), 1u);

  // The listing's fill answers stats of the children too.
  ASSERT_TRUE(StatSync("/d/a").ok());
  const auto hits = cluster_->client(0).counters().cache_hits;
  ASSERT_TRUE(StatSync("/d/a").ok());
  EXPECT_GT(cluster_->client(0).counters().cache_hits, hits);
}

TEST_F(ClientCacheTest, RevocationLandsBeforeTheConflictingAck) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(ListSync("/d").ok());
  ASSERT_TRUE(ListSync("/d").ok());  // warm: the second list is a hit
  ASSERT_GE(cluster_->client(0).counters().cache_hits, 1u);

  // Another client mutates the leased directory. Its ack is barriered on
  // client 0's patch, so the instant it returns, client 0's cached
  // listing already shows the new entry — the very next list hits and
  // sees it.
  ASSERT_TRUE(CreateFile("/d/b", 1).ok());
  EXPECT_GE(cluster_->client(0).counters().cache_patches, 1u);

  const Result<std::vector<std::string>> after = ListSync("/d");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(Contains(after.value(), "a"));
  EXPECT_TRUE(Contains(after.value(), "b"));
  EXPECT_TRUE(cluster_->client(0).last_stamp().via_cache);
  EXPECT_TRUE(ListMatchesActive("/d"));

  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  EXPECT_GE(active->counters().lease_patches, 1u);
}

TEST_F(ClientCacheTest, RevocationReachesHolderWithoutTheCoordinationService) {
  // The active pushes each revocation straight to the holder, so a
  // coordination frontend that is cut off stays off the mutation path:
  // the conflicting create completes on the holder's ack, not on the
  // lease-TTL backstop.
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(MkdirSync("/e", 1).ok());  // client 1 learns the active
  ASSERT_TRUE(ListSync("/d").ok());
  ASSERT_TRUE(ListSync("/d").ok());
  ASSERT_TRUE(cluster_->client(0).last_stamp().via_cache);
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);

  const NodeId coord = cluster_->coord().frontend_id();
  cluster_->faults().Unplug(coord);
  const SimTime start = sim_->Now();
  SimTime finished = 0;
  Status created = Status::TimedOut("no reply");
  cluster_->client(1).Create("/d/b", [&](Status s) {
    created = s;
    finished = sim_->Now();  // WaitFor below steps in 100 ms
  });
  testutil::WaitFor(*sim_, [&] { return finished != 0; }, 5 * kSecond);
  cluster_->faults().Replug(coord);

  ASSERT_TRUE(created.ok()) << created.ToString();
  EXPECT_LT(finished - start, 50 * kMillisecond);
  EXPECT_EQ(active->counters().lease_barrier_expiries, 0u);
  EXPECT_GE(cluster_->client(0).counters().cache_patches, 1u);
}

TEST_F(ClientCacheTest, OwnMutationsInvalidateTheCacheReadYourWrites) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  Result<fsns::FileInfo> info = StatSync("/d/a");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().block_count, 0u);
  ASSERT_TRUE(StatSync("/d/a").ok());  // cached copy with block_count 0

  // The client's own ack carries the revocation of its grant on /d, and
  // the client drops the lines its mutation conflicts with anyway, so the
  // follow-up stat cannot serve the pre-mutation copy.
  ASSERT_TRUE(AddBlockSync("/d/a").ok());
  info = StatSync("/d/a");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().block_count, 1u);
}

TEST_F(ClientCacheTest, TtlExpiryBoundsALostRevocation) {
  // The lease_revoke mutation models a lost revocation push: the active
  // sends none and holds no reply, so the holder keeps serving the dead
  // lease. The staleness window this opens must close at the lease TTL —
  // nothing else revokes the entry.
  Build(1, 2, 7, [](CfsConfig& cfg) {
    cfg.mds.mutation = core::Mutation::kIgnoreLeaseRevoke;
  });
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(ListSync("/d").ok());

  ASSERT_TRUE(CreateFile("/d/x", 1).ok());
  // Inside the TTL the dropped revocation is visible as a stale hit.
  const Result<std::vector<std::string>> stale = ListSync("/d");
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(cluster_->client(0).last_stamp().via_cache);
  EXPECT_FALSE(Contains(stale.value(), "x"));

  // Past the TTL the entry dies on its own and the read goes to the wire.
  Run(3 * kSecond);
  const Result<std::vector<std::string>> fresh = ListSync("/d");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(Contains(fresh.value(), "x"));
  EXPECT_FALSE(cluster_->client(0).last_stamp().via_cache);
  EXPECT_GE(cluster_->client(0).counters().cache_expiries, 1u);
}

TEST_F(ClientCacheTest, DeadLineRefusesItsGrantForOneTtlThenLeaves) {
  // A revoked line stays as a dead line for kLeaseTtl after the kill, to
  // refuse its grant's replies served before it: here a listing of /d
  // served just before another client's rename of /d revokes the grant.
  // Its fill is large, so the revocation overtakes it on the wire. Past
  // the deadline every such reply is dead on arrival, and a sweep leaves
  // the table, live and dead lines together, empty.
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 900, 1));
  ASSERT_TRUE(CreateFile("/x/f", 1).ok());
  FsClient& holder = cluster_->client(0);
  ASSERT_TRUE(ListSync("/d").ok());
  ASSERT_EQ(holder.cached_dirs(), 1u);

  bool listed = false;
  holder.ListDir(
      "/d", [&](Result<std::vector<std::string>> r) { listed = r.ok(); },
      {.require_active = true});
  Run(50 * kMicrosecond);  // the listing reaches the active first
  bool renamed = false;
  cluster_->client(1).Rename("/d", "/e", [&](Status s) { renamed = s.ok(); });
  const auto revocations = holder.counters().cache_revocations;
  ASSERT_TRUE(testutil::WaitFor(
      *sim_, [&] { return holder.counters().cache_revocations > revocations; },
      kSecond, 10 * kMicrosecond));
  const SimTime killed = sim_->Now();
  ASSERT_FALSE(listed) << "the revocation should overtake the listing";
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return listed; }, kSecond,
                                10 * kMicrosecond));
  // The listing was served before the kill: the dead line refuses it.
  EXPECT_EQ(holder.cached_dirs(), 0u);
  EXPECT_EQ(holder.cache_lines(), 1u);
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return renamed; }, kSecond));

  // A live line elsewhere keeps the sweep running. The dead line outlives
  // every pass before its deadline, and goes with the first one after it,
  // as the live line does after its own.
  ASSERT_TRUE(StatSync("/x/f").ok());
  ASSERT_EQ(holder.cache_lines(), 2u);
  Run(killed + core::kLeaseTtl - kMillisecond - sim_->Now());
  EXPECT_EQ(holder.cache_lines(), 2u);
  EXPECT_EQ(holder.cached_dirs(), 1u);
  Run(core::kLeaseTtl / 8 + 10 * kMillisecond);
  EXPECT_EQ(holder.cached_dirs(), 0u);
  EXPECT_EQ(holder.cache_lines(), 0u);
}

TEST_F(ClientCacheTest, FailoverOutlivesEveryLeaseAndCacheRecovers) {
  Build(1, 3);
  ASSERT_TRUE(MkdirSync("/v").ok());
  ASSERT_TRUE(CreateFile("/v/a").ok());
  ASSERT_TRUE(ListSync("/v").ok());
  ASSERT_TRUE(ListSync("/v").ok());
  ASSERT_GE(cluster_->client(0).counters().cache_hits, 1u);

  // Leases are granted only while `now + ttl` fits inside the granter's
  // confirmed coordination session, so no lease can span the failover:
  // by the time a successor serves its first mutation, every grant of the
  // dead active has expired client-side.
  cluster_->FindActive(0)->Crash();
  Run(10 * kSecond);
  ASSERT_NE(cluster_->FindActive(0), nullptr);

  ASSERT_TRUE(CreateFile("/v/b", 1).ok());
  const Result<std::vector<std::string>> after = ListSync("/v");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(Contains(after.value(), "a"));
  EXPECT_TRUE(Contains(after.value(), "b"));
  EXPECT_FALSE(cluster_->client(0).last_stamp().via_cache);

  // The successor active grants fresh leases; the cache re-engages.
  const auto hits = cluster_->client(0).counters().cache_hits;
  ASSERT_TRUE(ListSync("/v").ok());
  EXPECT_GT(cluster_->client(0).counters().cache_hits, hits);
}

TEST_F(ClientCacheTest, ActiveCutOffFromCoordinationStopsGrantingLeases) {
  // The lease-grant guard: a grant must expire inside the granter's
  // confirmed coordination session. Cut only the active <-> coordination
  // frontend pair, so the active keeps serving while its session runs out,
  // and keep reading fresh directories (each read wants a new grant) from
  // a bare client endpoint that sees every grant's deadline.
  Build(1, 2);
  constexpr int kDirs = 80;
  for (int i = 0; i < kDirs; ++i) {
    ASSERT_TRUE(MkdirSync("/g" + std::to_string(i)).ok());
  }
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  net::Host reader(*net_, "lease-reader");
  reader.Boot();

  struct Read {
    SimTime at = 0;
    bool ok = false;
    std::uint64_t lease_id = 0;
    SimTime lease_expire_at = 0;
    std::uint64_t granted = 0;  ///< the active's leases_granted at `at`
  };
  std::vector<Read> reads;
  const NodeId coord = cluster_->coord().frontend_id();
  net_->Partition(active->id(), coord);
  const SimTime cut = sim_->Now();
  const SimTime ack = active->last_session_ack();
  const std::uint64_t granted_at_cut = active->counters().leases_granted;
  ASSERT_LE(ack, cut);

  for (int i = 0; i < kDirs && active->role() == ServerState::kActive; ++i) {
    auto req = std::make_shared<core::ClientRequestMsg>();
    req->op = core::ClientOp::kListDir;
    req->path = "/g" + std::to_string(i);
    req->client = {.client_id = 1000, .op_seq = static_cast<std::uint64_t>(i)};
    req->requester = reader.id();
    reader.Call(active->id(), req, kSecond, [&](Result<net::MessagePtr> r) {
      if (!r.ok()) return;
      const auto& resp = net::Cast<core::ClientResponseMsg>(r.value());
      reads.push_back({sim_->Now(), resp.ok, resp.lease_id,
                       resp.lease_expire_at,
                       active->counters().leases_granted});
    });
    Run(100 * kMillisecond);
  }
  net_->Heal(active->id(), coord);
  EXPECT_EQ(active->last_session_ack(), ack);  // nothing confirmed since
  ASSERT_FALSE(reads.empty());

  // No grant outlives the session the coordination service can expire.
  const SimTime stop = cut + coord::kSessionTimeout - core::kLeaseTtl;
  bool granted_after_cut = false;
  bool answered_after_stop = false;
  for (const Read& read : reads) {
    if (read.lease_id != 0) {
      EXPECT_LE(read.lease_expire_at, ack + coord::kSessionTimeout);
      granted_after_cut = true;
    }
    if (read.at <= stop) continue;
    // Past kSessionTimeout - kLeaseTtl from the cut the active grants
    // nothing more, yet keeps answering reads until it is deposed.
    EXPECT_EQ(read.lease_id, 0u);
    EXPECT_EQ(read.granted, reads.back().granted);
    if (read.ok) answered_after_stop = true;
  }
  EXPECT_TRUE(granted_after_cut);
  EXPECT_GT(reads.back().granted, granted_at_cut);
  EXPECT_TRUE(answered_after_stop);
}

TEST_F(ClientCacheTest, ShardMigrationInvalidatesMovedLeases) {
  Build(2, 2);
  // A directory whose children (and dir slot) live in group 0.
  const shard::PartitionMap seedmap = shard::PartitionMap::Seed(2);
  std::string dir;
  std::uint32_t slot = 0;
  for (int i = 0;; ++i) {
    dir = "/mv" + std::to_string(i);
    slot = seedmap.SlotOfDir(dir);
    if (seedmap.OwnerOfSlot(slot) == 0) break;
  }
  ASSERT_TRUE(CreateFile(dir + "/f0").ok());
  ASSERT_TRUE(StatSync(dir + "/f0").ok());
  const auto hits = cluster_->client(0).counters().cache_hits;
  ASSERT_TRUE(StatSync(dir + "/f0").ok());
  ASSERT_GT(cluster_->client(0).counters().cache_hits, hits);

  // Cutover revokes every lease on the moving slot before the destination
  // activates, so the cached line cannot outlive the old owner's
  // authority.
  ASSERT_TRUE(cluster_->StartShardMigration(slot, 1).ok());
  Run(10 * kSecond);
  EXPECT_GE(cluster_->client(0).counters().cache_revocations, 1u);

  ASSERT_TRUE(CreateFile(dir + "/f1", 1).ok());
  const Result<fsns::FileInfo> moved = StatSync(dir + "/f0");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  const Result<fsns::FileInfo> fresh = StatSync(dir + "/f1");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  core::MdsServer* a1 = cluster_->FindActive(1);
  ASSERT_NE(a1, nullptr);
  EXPECT_TRUE(a1->tree().Exists(dir + "/f0"));
  EXPECT_TRUE(a1->tree().Exists(dir + "/f1"));
}

TEST_F(ClientCacheTest, MigrationActivationWaitsOnTheCutoverLeaseBarrier) {
  const SimTime ttl = core::kLeaseTtl;
  for (const bool partitioned : {true, false}) {
    SCOPED_TRACE(partitioned ? "holder partitioned" : "holder reachable");
    Build(2, 2);
    const shard::PartitionMap seedmap = shard::PartitionMap::Seed(2);
    std::string dir;
    std::uint32_t slot = 0;
    for (int i = 0;; ++i) {
      dir = "/mv" + std::to_string(i);
      slot = seedmap.SlotOfDir(dir);
      if (seedmap.OwnerOfSlot(slot) == 0) break;
    }
    ASSERT_TRUE(CreateFile(dir + "/f0").ok());
    // Client 0 takes a lease on `dir`; millisecond steps pin its expiry
    // to [before + ttl, after + ttl].
    FsClient& holder = cluster_->client(0);
    bool read = false;
    const SimTime before = sim_->Now();
    holder.GetFileInfo(dir + "/f0",
                       [&](Result<fsns::FileInfo> r) { read = r.ok(); });
    ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return read; }, kSecond,
                                  kMillisecond));
    const SimTime after = sim_->Now();
    const auto revocations = holder.counters().cache_revocations;
    if (partitioned) cluster_->faults().Unplug(holder.id());

    core::MdsServer* src = cluster_->FindActive(0);
    core::MdsServer* dst = cluster_->FindActive(1);
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    ASSERT_TRUE(cluster_->StartShardMigration(slot, 1).ok());
    ASSERT_TRUE(testutil::WaitFor(
        *sim_, [&] { return dst->tree().shard().acquired.contains(slot); },
        10 * kSecond, kMillisecond));
    const SimTime activated = sim_->Now();
    if (partitioned) {
      // The revocation never reaches the holder: the destination may only
      // start serving once the lease is dead client-side, and then at once.
      EXPECT_GE(activated, before + ttl);
      EXPECT_LE(activated, after + ttl + 5 * kMillisecond);
      EXPECT_EQ(src->counters().lease_barrier_expiries, 1u);
      cluster_->faults().Replug(holder.id());
    } else {
      // The holder's ack releases the barrier; no TTL wait.
      EXPECT_LT(activated, before + ttl);
      EXPECT_GT(holder.counters().cache_revocations, revocations);
      EXPECT_EQ(src->counters().lease_barrier_expiries, 0u);
    }
    Run(5 * kSecond);
    EXPECT_EQ(src->counters().migrations_completed, 1u);
    const Result<fsns::FileInfo> moved = StatSync(dir + "/f0");
    EXPECT_TRUE(moved.ok()) << moved.status().ToString();
  }
}

TEST_F(ClientCacheTest, MigrationSlotDropRevokesTheGrandparentsLines) {
  // `g`'s children route to group 0, and so do `g/h`'s, by another slot.
  // Moving that slot away drops `g/h/f` at the source, which moves `g/h`'s
  // mtime with no mutation to patch `g`'s holders: the drop revokes them.
  Build(2, 2);
  const shard::PartitionMap seedmap = shard::PartitionMap::Seed(2);
  std::string g, h;
  std::uint32_t slot = 0;
  for (int i = 0; h.empty(); ++i) {
    g = "/g" + std::to_string(i);
    if (seedmap.OwnerOfSlot(seedmap.SlotOfDir(g)) != 0) continue;
    for (int j = 0; j < 64 && h.empty(); ++j) {
      const std::string c = g + "/h" + std::to_string(j);
      slot = seedmap.SlotOfDir(c);
      if (slot != seedmap.SlotOfDir(g) && seedmap.OwnerOfSlot(slot) == 0)
        h = c;
    }
  }
  ASSERT_TRUE(CreateFile(h + "/f").ok());
  core::MdsServer* src = cluster_->FindActive(0);
  ASSERT_NE(src, nullptr);
  ASSERT_TRUE(StatSync(h).ok());
  ASSERT_EQ(cluster_->client(0).cached_pages(g).size(), 1u);

  // Client 0 keeps its grant on `g` (and the fill's memo) alive with wire
  // reads until the migration has ended.
  ASSERT_TRUE(cluster_->StartShardMigration(slot, 1).ok());
  for (int i = 0; i < 100 && src->counters().migrations_completed == 0; ++i) {
    ASSERT_TRUE(StatSync(h, 0, {.require_active = true}).ok());
    Run(200 * kMillisecond);
  }
  ASSERT_EQ(src->counters().migrations_completed, 1u);
  const Result<fsns::FileInfo> truth = src->tree().GetFileInfo(h);
  ASSERT_TRUE(truth.ok());
  // The holder's line must not answer with `h`'s old mtime.
  const Result<fsns::FileInfo> held = StatSync(h);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held.value().mtime, truth.value().mtime);
  // Client 1's first stat goes to the wire; the second is answered from
  // the fill that reply carried, which the memo must not have predated.
  ASSERT_TRUE(StatSync(h, 1).ok());
  const Result<fsns::FileInfo> got = StatSync(h, 1);
  ASSERT_TRUE(cluster_->client(1).last_stamp().via_cache);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().mtime, truth.value().mtime);
}

TEST_F(ClientCacheTest, MigrationInstallRevokesTheMaterializedParentsLines) {
  // `p`'s children route to group 1 and `p/a`'s to group 0. Creating
  // `p/a/f` at group 0 leaves `p/a` absent from group 1's tree, so a fill
  // of `p` there shows it absent. Moving `p/a`'s slot to group 1 installs
  // `p/a/f` there, which materializes `p/a` with no mutation to patch
  // `p`'s holders: the install revokes them.
  Build(2, 2);
  const shard::PartitionMap seedmap = shard::PartitionMap::Seed(2);
  std::string p, a;
  std::uint32_t slot = 0;
  for (int i = 0; a.empty(); ++i) {
    p = "/p" + std::to_string(i);
    if (seedmap.OwnerOfDir(p) != 1) continue;
    for (int j = 0; j < 64 && a.empty(); ++j) {
      const std::string c = p + "/a" + std::to_string(j);
      slot = seedmap.SlotOfDir(c);
      if (seedmap.OwnerOfSlot(slot) == 0) a = c;
    }
  }
  ASSERT_TRUE(CreateFile(p + "/y").ok());
  ASSERT_TRUE(CreateFile(a + "/f").ok());
  core::MdsServer* dst = cluster_->FindActive(1);
  ASSERT_NE(dst, nullptr);
  ASSERT_FALSE(dst->tree().Exists(a));
  ASSERT_EQ(StatSync(a).status().code(), StatusCode::kNotFound);
  ASSERT_EQ(cluster_->client(0).cached_pages(p).size(), 1u);

  // Client 0 keeps its grant on `p` (and the fill's memo) alive with wire
  // reads until the slot is installed at group 1.
  ASSERT_TRUE(cluster_->StartShardMigration(slot, 1).ok());
  for (int i = 0; i < 100 && !dst->tree().shard().acquired.contains(slot);
       ++i) {
    ASSERT_TRUE(StatSync(p + "/y", 0, {.require_active = true}).ok());
    Run(200 * kMillisecond);
  }
  ASSERT_TRUE(dst->tree().shard().acquired.contains(slot));
  ASSERT_TRUE(dst->tree().Exists(a));
  // The holder's line must not answer that `p/a` is absent.
  EXPECT_TRUE(StatSync(a).ok());
  EXPECT_TRUE(StatSync(a, 1).ok());
}

TEST_F(ClientCacheTest, ExpiredGrantsFreeTheirSlots) {
  // The grant table is bounded; at the cap a read is served without a
  // lease. A grant past its deadline is dead, so it must give its slot back
  // without any revocation: fill the table from many holders, let every
  // grant expire, and a new holder's read must be granted again.
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  net::Host reader(*net_, "lease-filler");
  reader.Boot();
  std::uint64_t seq = 0;
  // One stat of /d/a per fake holder; returns how many came back unleased.
  auto stat_as = [&](NodeId first, int holders) {
    int unleased = 0;
    int answered = 0;
    for (int i = 0; i < holders; ++i) {
      auto req = std::make_shared<core::ClientRequestMsg>();
      req->op = core::ClientOp::kGetFileInfo;
      req->path = "/d/a";
      req->client = {.client_id = 2000, .op_seq = ++seq};
      req->requester = first + static_cast<NodeId>(i);
      reader.Call(active->id(), req, kSecond, [&](Result<net::MessagePtr> r) {
        ++answered;
        if (r.ok() && net::Cast<core::ClientResponseMsg>(r.value()).ok &&
            net::Cast<core::ClientResponseMsg>(r.value()).lease_id == 0) {
          ++unleased;
        }
      });
    }
    testutil::WaitFor(*sim_, [&] { return answered == holders; }, kSecond,
                      kMillisecond);
    EXPECT_EQ(answered, holders);
    return unleased;
  };
  // Fill well inside one TTL: a batch of filled stats costs the active's
  // CPU ~61 ms.
  constexpr int kBatch = 2048;
  NodeId next = 10000;
  bool full = false;
  for (int batch = 0; batch < 40 && !full; ++batch, next += kBatch) {
    full = stat_as(next, kBatch) > 0;
  }
  ASSERT_TRUE(full) << "the grant table never filled";
  EXPECT_EQ(stat_as(next, 1), 1) << "the table should still be full";
  ++next;

  Run(core::kLeaseTtl);
  EXPECT_EQ(stat_as(next, 1), 0) << "expired grants kept their slots";
}

TEST_F(ClientCacheTest, IdleClientDropsItsLinesWhenTheLeasesDie) {
  // A line holds no more than its lease: an idle client must not keep
  // entries for directories it stopped reading.
  Build(1, 2);
  for (const char* dir : {"/p", "/q", "/r"}) {
    ASSERT_TRUE(CreateFile(std::string(dir) + "/f").ok());
    ASSERT_TRUE(StatSync(std::string(dir) + "/f").ok());
  }
  EXPECT_EQ(cluster_->client(0).cached_dirs(), 3u);
  // One TTL, plus the sweep's period (an eighth of it).
  Run(core::kLeaseTtl + core::kLeaseTtl / 8 + kMillisecond);
  EXPECT_EQ(cluster_->client(0).cached_dirs(), 0u);
  EXPECT_GE(cluster_->client(0).counters().cache_expiries, 3u);
}

TEST_F(ClientCacheTest, NegativeEntryDiesWithTheCreateThatFillsIt) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(MkdirSync("/e", 1).ok());  // client 1 learns the active
  ASSERT_EQ(StatSync("/d/n").status().code(), StatusCode::kNotFound);
  ASSERT_EQ(StatSync("/d/n").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster_->client(0).last_stamp().via_cache);

  // A create elsewhere in the directory patches only its own name...
  ASSERT_TRUE(CreateFile("/d/m", 1).ok());
  ASSERT_EQ(StatSync("/d/n").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(cluster_->client(0).last_stamp().via_cache);
  // ...and the create of the name itself, or of a path under it, patches
  // its new entry in before its ack.
  ASSERT_TRUE(CreateFile("/d/n", 1).ok());
  EXPECT_TRUE(StatMatchesActive("/d/n"));
  ASSERT_EQ(StatSync("/d/k").status().code(), StatusCode::kNotFound);
  ASSERT_EQ(StatSync("/d/k").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster_->client(0).last_stamp().via_cache);
  ASSERT_TRUE(CreateFile("/d/k/deep", 1).ok());  // materializes /d/k
  const Result<fsns::FileInfo> k = StatSync("/d/k");
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_TRUE(k.value().is_dir);
  EXPECT_TRUE(StatMatchesActive("/d/k"));
}

TEST_F(ClientCacheTest, OneStatFillsTheWholeDirectory) {
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/f0").ok());
  ASSERT_TRUE(CreateFile("/d/f1").ok());
  ASSERT_FALSE(StatMatchesActive("/d/f0"));  // the miss that fills /d
  const auto misses = cluster_->client(0).counters().cache_misses;
  // A sibling never fetched, a name never created and the listing: all
  // hits, all equal to the active's answers.
  EXPECT_TRUE(StatMatchesActive("/d/f1"));
  ASSERT_EQ(StatSync("/d/never").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(StatMatchesActive("/d/never"));
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_EQ(cluster_->client(0).counters().cache_misses, misses);
}

TEST_F(ClientCacheTest, AnotherClientsCreatePatchesTheLineInPlace) {
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/f0").ok());
  ASSERT_TRUE(CreateFile("/d/f1").ok());
  ASSERT_TRUE(MkdirSync("/e", 1).ok());  // client 1 learns the active
  ASSERT_FALSE(StatMatchesActive("/d/f0"));
  const auto fill = CachedFill("/d", 0);
  const std::uint64_t misses = cluster_->client(0).counters().cache_misses;
  ASSERT_TRUE(CreateFile("/d/x", 1).ok());
  // The patch carried x's entry: the line keeps its fill, and the new
  // file, its siblings and the listing all hit.
  EXPECT_TRUE(StatMatchesActive("/d/f1"));
  EXPECT_TRUE(StatMatchesActive("/d/x"));
  EXPECT_TRUE(ListMatchesActive("/d"));
  ASSERT_TRUE(CreateFile("/d/y", 1).ok());
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_TRUE(StatMatchesActive("/d/y"));
  EXPECT_EQ(CachedFill("/d", 0), fill);
  EXPECT_EQ(cluster_->client(0).counters().cache_misses, misses);
  EXPECT_EQ(cluster_->client(0).counters().cache_patches, 2u);
}

TEST_F(ClientCacheTest, FillsAtOneVersionShareOneSnapshot) {
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/f0").ok());
  ASSERT_TRUE(CreateFile("/d/f1").ok());
  EXPECT_EQ(FillBytes(), 0);
  ASSERT_TRUE(StatSync("/d/f0", 0).ok());
  ASSERT_TRUE(StatSync("/d/f1", 1).ok());
  const auto first = CachedFill("/d", 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(CachedFill("/d", 1), first);
  EXPECT_EQ(first->size(), 2u);
  // Two lines and the active hold one snapshot, counted once.
  EXPECT_EQ(FillBytes(), static_cast<std::int64_t>(first->bytes()));

  // Client 0's create patches both lines, client 1's by a push and its
  // own by its ack, and each keeps the first fill with f2's entry beside
  // it. A read at the new version (require_active: the line would answer
  // it) refills a line with the next fill, built afresh at that version
  // and shared again.
  ASSERT_TRUE(CreateFile("/d/f2", 0).ok());
  EXPECT_EQ(CachedFill("/d", 0), first);
  EXPECT_EQ(CachedFill("/d", 1), first);
  ASSERT_TRUE(StatSync("/d/f2", 1).ok());
  EXPECT_TRUE(cluster_->client(1).last_stamp().via_cache);
  ASSERT_TRUE(StatSync("/d/f2", 1, {.require_active = true}).ok());
  const auto second = CachedFill("/d", 1);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  EXPECT_EQ(second->size(), 3u);
  ASSERT_TRUE(StatSync("/d/f2", 0, {.require_active = true}).ok());
  EXPECT_EQ(CachedFill("/d", 0), second);
  // Only this test still holds the first snapshot.
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(FillBytes(),
            static_cast<std::int64_t>(first->bytes() + second->bytes()));
}

TEST_F(ClientCacheTest, LargeDirectoryIsLeasedPageByPage) {
  // A directory past one page is leased one page at a time: the first stat
  // into a page misses and brings that page, and later stats into it hit.
  Build(1, 2);
  const std::size_t kPage = core::ReadService::kMaxFillChildren;
  ASSERT_TRUE(CreateMany("/big", 2500, 1));
  const std::vector<std::string> names = SortedNames(2500);
  FsClient& reader = cluster_->client(0);
  const std::uint64_t refused = CounterValue("mds.leases_refused");
  const std::uint64_t off_page = CounterValue("client.cache_miss_off_page");
  // Each sync step runs 100 ms, so the checks stay well inside the TTL
  // of the last page's grant.
  for (std::size_t page = 0; page < 3; ++page) {
    EXPECT_FALSE(StatMatchesActive("/big/" + names[page * kPage + 1]));
    ASSERT_EQ(reader.cached_pages("/big").size(), page + 1);
    // Absent, and sorts between the page's last name and the next page's
    // first.
    const std::string& last =
        names[std::min((page + 1) * kPage, names.size()) - 1];
    EXPECT_TRUE(StatMatchesActive("/big/" + last + "!"));
  }
  EXPECT_TRUE(StatMatchesActive("/big/" + names[0]));
  EXPECT_TRUE(StatMatchesActive("/big/" + names[kPage]));
  // The first page's first stat found no line; the others' found the
  // line without their page.
  EXPECT_EQ(CounterValue("client.cache_miss_off_page") - off_page, 2u);
  EXPECT_EQ(CounterValue("mds.leases_refused"), refused);
  for (const auto& page : reader.cached_pages("/big")) {
    EXPECT_FALSE(page->whole());
  }
  // A stat whose parent is no directory is still served unleased.
  ASSERT_EQ(StatSync("/nowhere/f").status().code(), StatusCode::kNotFound);
  ASSERT_EQ(StatSync("/big/f0/f").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue("mds.leases_refused") - refused, 2u);
  EXPECT_EQ(reader.cached_dirs(), 1u);
  // Down to one page, the directory is filled whole again. The line
  // answers each deleted name from its patch, but it still holds pages
  // of a larger directory, so a listing goes to the wire and its reply
  // brings the one whole page.
  std::vector<std::string> deleted;
  for (std::size_t i = kPage; i < names.size(); ++i)
    deleted.push_back("/big/" + names[i]);
  ASSERT_TRUE(DeleteMany(deleted, 1));
  EXPECT_TRUE(StatMatchesActive(deleted[0]));
  EXPECT_FALSE(ListMatchesActive("/big"));
  const auto whole = CachedFill("/big", 0);
  ASSERT_NE(whole, nullptr);
  EXPECT_TRUE(whole->whole());
  EXPECT_EQ(whole->size(), kPage);
  EXPECT_TRUE(StatMatchesActive("/big/" + names[kPage - 1]));
  EXPECT_TRUE(ListMatchesActive("/big"));
}

TEST_F(ClientCacheTest, ListingOfALargeDirectoryGoesToTheWireAndPaysPerPage) {
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 2500, 1));
  const std::vector<std::string> names = SortedNames(2500);
  FsClient& reader = cluster_->client(0);
  ASSERT_FALSE(StatMatchesActive("/d/" + names[10]));
  ASSERT_FALSE(StatMatchesActive("/d/" + names[1200]));
  // The listing's page (the first) joins the line, which stays two pages
  // and so never answers a listing.
  EXPECT_FALSE(ListMatchesActive("/d"));
  EXPECT_FALSE(ListMatchesActive("/d"));
  EXPECT_EQ(reader.cached_pages("/d").size(), 2u);
  EXPECT_TRUE(StatMatchesActive("/d/" + names[1200]));

  // 2,500 names are three getListing pages: on top of the one listdir the
  // server charged on arrival, Execute holds the reply two more, on the
  // active and on a standby alike.
  auto req = std::make_shared<core::ClientRequestMsg>();
  req->op = core::ClientOp::kListDir;
  req->path = "/d";
  for (std::size_t m = 0; m < cluster_->group_size(0); ++m) {
    core::MdsServer& server = cluster_->mds(0, static_cast<int>(m));
    const bool standby = server.role() == ServerState::kStandby;
    const SimTime start = sim_->Now();
    SimTime replied = -1;
    std::size_t listed = 0;
    server.reads().Execute(
        *req,
        [&](net::MessagePtr out) {
          replied = sim_->Now();
          listed = net::Cast<core::ClientResponseMsg>(out).listing.size();
        },
        standby);
    Run(kMillisecond);
    EXPECT_EQ(listed, names.size()) << server.name();
    EXPECT_EQ(replied - start, 2 * core::kOpCosts.listdir) << server.name();
  }
}

TEST_F(ClientCacheTest, PageAtTheLinesVersionKeepsThePatchesOutsideItsRange) {
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 1500, 1));
  const std::vector<std::string> names = SortedNames(1500);
  const std::string a = "/d/" + names[10];
  const std::string b = "/d/" + names[1200];
  FsClient& reader = cluster_->client(0);
  ASSERT_FALSE(StatMatchesActive(a));
  ASSERT_FALSE(StatMatchesActive(b));
  const auto first = reader.cached_pages("/d").front();
  ASSERT_EQ(reader.cached_pages("/d").size(), 2u);
  // Another client's addblock of `a` patches its entry in the first page.
  ASSERT_TRUE(AddBlockSync(a, 1).ok());
  // A reply at the line's version brings the second page again: it joins,
  // and the first page keeps `a`'s patched entry, which answers for it.
  ASSERT_TRUE(StatSync(b, 0, {.require_active = true}).ok());
  EXPECT_EQ(reader.cached_pages("/d").size(), 2u);
  EXPECT_EQ(reader.cached_pages("/d").front(), first);
  EXPECT_TRUE(StatMatchesActive(b));
  EXPECT_TRUE(StatMatchesActive(a));
  EXPECT_EQ(StatSync(a).value().block_count, 1u);
}

TEST_F(ClientCacheTest, DeleteOrRenameInsideADirectoryMovesItInTheGrandparent) {
  // A delete or rename moves its parent's mtime, which the grandparent's
  // line shows: a remote holder's line gets a patch, and the mutating
  // client's own line goes.
  Build(1, 2);
  for (const char* f : {"/a/b/x", "/a/b/y", "/a/b/z", "/a/b/w"}) {
    ASSERT_TRUE(CreateFile(f, 1).ok());
  }
  ASSERT_FALSE(StatMatchesActive("/a/b"));
  EXPECT_TRUE(StatMatchesActive("/a/b"));
  Run(10 * kMillisecond);
  ASSERT_TRUE(DeleteSync("/a/b/x", 1).ok());
  StatMatchesActive("/a/b");
  Run(10 * kMillisecond);
  ASSERT_TRUE(RenameSync("/a/b/y", "/a/b/y2", 1).ok());
  StatMatchesActive("/a/b");
  Run(10 * kMillisecond);
  ASSERT_TRUE(DeleteSync("/a/b/z", 0).ok());
  StatMatchesActive("/a/b");
  Run(10 * kMillisecond);
  ASSERT_TRUE(RenameSync("/a/b/w", "/a/b/w2", 0).ok());
  StatMatchesActive("/a/b");
}

TEST_F(ClientCacheTest, WriterKeepsItsLineUpdatedWithWhatItChanged) {
  // The records of a writer's own grants ride its ack as patches, as a
  // push would carry them to another holder: the grant stays, and the
  // writer's line takes the entry of the child it changed.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/y").ok());
  ASSERT_FALSE(StatMatchesActive("/d/y"));  // the miss that fills /d
  const std::uint64_t misses = cluster_->client(0).counters().cache_misses;
  ASSERT_TRUE(CreateFile("/d/x").ok());
  EXPECT_TRUE(StatMatchesActive("/d/y"));
  EXPECT_TRUE(StatMatchesActive("/d/x"));
  ASSERT_TRUE(CreateFile("/d/w").ok());
  EXPECT_TRUE(StatMatchesActive("/d/y"));
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_TRUE(StatMatchesActive("/d/w"));
  ASSERT_TRUE(AddBlockSync("/d/w").ok());
  EXPECT_TRUE(StatMatchesActive("/d/w"));
  ASSERT_TRUE(DeleteSync("/d/x").ok());
  EXPECT_TRUE(StatMatchesActive("/d/x"));
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_EQ(cluster_->client(0).counters().cache_misses, misses);
  EXPECT_EQ(cluster_->client(0).counters().cache_revocations, 0u);
  EXPECT_EQ(cluster_->FindActive(0)->counters().leases_revoked, 0u);
}

TEST_F(ClientCacheTest, FailedOwnMutationStillDropsItsLines) {
  // A create that fails commits nothing and its ack carries no record.
  // The client still drops its lines, as on every outcome that no record
  // vouches for.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_FALSE(StatMatchesActive("/d/b"));
  ASSERT_TRUE(StatMatchesActive("/d/b"));
  EXPECT_EQ(CreateFile("/d/a").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cluster_->client(0).cached_dirs(), 0u);
  EXPECT_FALSE(StatMatchesActive("/d/b"));
}

TEST_F(ClientCacheTest, ResentOwnMutationStillDropsItsLines) {
  // Only the ack to a mutation's one send vouches for its records: here
  // the first send is lost, the resend executes and its ack carries the
  // patch, and the writer still drops the line.
  Build(1, 2, 7, [](CfsConfig& cfg) {
    cfg.client.rpc_timeout = 100 * kMillisecond;
  });
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(StatSync("/d/a").ok());
  FsClient& writer = cluster_->client(0);
  ASSERT_EQ(writer.cached_dirs(), 1u);
  cluster_->faults().CutHalf(writer.id(), Faults::Half::kOut);
  bool created = false;
  writer.Create("/d/b", [&](Status s) { created = s.ok(); });
  Run(10 * kMillisecond);
  cluster_->faults().RestoreHalves(writer.id());
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return created; }, kSecond,
                                kMillisecond));
  EXPECT_EQ(writer.cached_dirs(), 0u);
  EXPECT_FALSE(StatMatchesActive("/d/a"));
}

TEST_F(ClientCacheTest, IdleClientSweepsItsDeadLines) {
  // A dead line keeps the sweep armed by itself: with no live line left
  // and no further read, it still goes one TTL after its kill.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(StatSync("/d/a").ok());
  ASSERT_EQ(CreateFile("/d/a").code(), StatusCode::kAlreadyExists);
  FsClient& idle = cluster_->client(0);
  ASSERT_EQ(idle.cached_dirs(), 0u);
  ASSERT_EQ(idle.cache_lines(), 1u);
  Run(core::kLeaseTtl + core::kLeaseTtl / 8 + kMillisecond);
  EXPECT_EQ(idle.cache_lines(), 0u);
}

TEST_F(ClientCacheTest, ConcurrentMissesOfOneDirectoryShareOneRefill) {
  // Reads of a cold directory issued together: the first goes to the
  // active, the others wait for its reply and are served from the line it
  // fills. Each read counts one hit or one miss.
  Build(1, 2);
  constexpr int kReads = 8;
  ASSERT_TRUE(CreateMany("/d", kReads, 1));
  ASSERT_TRUE(MkdirSync("/e").ok());  // client 0 learns the active
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  FsClient& reader = cluster_->client(0);
  const std::uint64_t reads = active->counters().reads;
  const FsClient::Counters before = reader.counters();
  int ok = 0;
  for (int i = 0; i < kReads; ++i) {
    reader.GetFileInfo("/d/f" + std::to_string(i),
                       [&](Result<fsns::FileInfo> r) { ok += r.ok(); });
  }
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return ok == kReads; },
                                kSecond, kMillisecond));
  EXPECT_EQ(active->counters().reads - reads, 1u);
  const FsClient::Counters& after = reader.counters();
  EXPECT_EQ(after.cache_misses - before.cache_misses, 1u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, kReads - 1u);
  EXPECT_EQ(after.cache_refill_waits - before.cache_refill_waits,
            kReads - 1u);
}

TEST_F(ClientCacheTest, ClientCrashDropsItsRefillWaiters) {
  // Reads waiting on a refill die with the client's incarnation, as the
  // wire read they wait on does: after a restart, a read of the same
  // directory is not left waiting on a reply that will never come.
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 4, 1));
  ASSERT_TRUE(MkdirSync("/e").ok());  // client 0 learns the active
  FsClient& reader = cluster_->client(0);
  int answered = 0;
  for (int i = 0; i < 4; ++i) {
    reader.GetFileInfo("/d/f" + std::to_string(i),
                       [&](Result<fsns::FileInfo>) { ++answered; });
  }
  ASSERT_EQ(reader.counters().cache_refill_waits, 3u);
  reader.Crash();
  Run(kSecond);
  EXPECT_EQ(answered, 0);
  reader.Restart();
  Run(kMillisecond);
  EXPECT_TRUE(StatSync("/d/f1").ok());
}

TEST_F(ClientCacheTest, UnackedHolderHoldsTheConflictingAck) {
  // A holder that has not acked its patch holds the conflicting
  // mutation's ack (mds.lease_replies_held), and its ack releases it at
  // once, long before the TTL backstop.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/a").ok());
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  net::Host holder(*net_, "slow-holder");
  std::vector<core::LeaseRevocation> pushed;
  holder.OnRequest(net::kLeaseRevoke,
                   [&](const net::Envelope&, const net::MessagePtr& msg,
                       const net::Host::ReplyFn&) {
                     for (const auto& rec :
                          net::Cast<core::LeaseRevokeMsg>(msg).leases) {
                       pushed.push_back(rec);
                     }
                   });
  holder.Boot();
  auto req = std::make_shared<core::ClientRequestMsg>();
  req->op = core::ClientOp::kGetFileInfo;
  req->path = "/d/a";
  req->client = {.client_id = 3000, .op_seq = 1};
  req->requester = holder.id();
  bool leased = false;
  holder.Call(active->id(), req, kSecond, [&](Result<net::MessagePtr> r) {
    leased = r.ok() &&
             net::Cast<core::ClientResponseMsg>(r.value()).lease_id != 0;
  });
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return leased; }, kSecond,
                                kMillisecond));

  const std::uint64_t held = active->counters().lease_replies_held;
  bool created = false;
  cluster_->client(0).Create("/d/b", [&](Status s) { created = s.ok(); });
  Run(50 * kMillisecond);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_FALSE(created);
  EXPECT_EQ(active->counters().lease_replies_held - held, 1u);

  auto ack = std::make_shared<core::LeaseRevokeAckMsg>();
  ack->leases.emplace_back(pushed[0].lease_id, pushed[0].version);
  holder.Send(active->id(), std::move(ack));
  EXPECT_TRUE(testutil::WaitFor(*sim_, [&] { return created; },
                                10 * kMillisecond, 10 * kMicrosecond));
  EXPECT_EQ(active->counters().lease_barrier_expiries, 0u);
}

// A patch carries the changed child's entry as the active's tree holds it
// after the change, so a holder's line answers for the child in place: the
// holder's next reads of the directory hit and match the active.
class PatchEntryTest : public ClientCacheTest {
 protected:
  /// /d holds f0..f2 and client 0 holds its whole page; client 1 writes.
  void HoldD() {
    Build(1, 2);
    ASSERT_TRUE(CreateMany("/d", 3, 1));
    ASSERT_FALSE(ListMatchesActive("/d"));
    misses_ = cluster_->client(0).counters().cache_misses;
  }
  /// Client 0 missed no read since HoldD.
  void ExpectNoMiss() {
    EXPECT_EQ(cluster_->client(0).counters().cache_misses, misses_);
  }
  std::uint64_t misses_ = 0;
};

TEST_F(PatchEntryTest, AnotherClientsAddBlock) {
  HoldD();
  const fsns::FileInfo before = StatSync("/d/f1").value();
  Run(kMillisecond);  // the addblock moves the file's mtime
  ASSERT_TRUE(AddBlockSync("/d/f1", 1).ok());
  EXPECT_TRUE(StatMatchesActive("/d/f1"));
  const fsns::FileInfo after = StatSync("/d/f1").value();
  EXPECT_EQ(after.block_count, before.block_count + 1);
  EXPECT_GT(after.mtime, before.mtime);
  EXPECT_TRUE(ListMatchesActive("/d"));
  ExpectNoMiss();
}

TEST_F(PatchEntryTest, AnotherClientsCreate) {
  HoldD();
  ASSERT_TRUE(CreateFile("/d/a", 1).ok());
  EXPECT_TRUE(StatMatchesActive("/d/a"));
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_TRUE(Contains(ListSync("/d").value(), "a"));
  ExpectNoMiss();
}

TEST_F(PatchEntryTest, AnotherClientsDelete) {
  HoldD();
  ASSERT_TRUE(DeleteSync("/d/f1", 1).ok());
  EXPECT_TRUE(StatMatchesActive("/d/f1"));
  EXPECT_EQ(StatSync("/d/f1").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_FALSE(Contains(ListSync("/d").value(), "f1"));
  ExpectNoMiss();
}

TEST_F(PatchEntryTest, AnotherClientsRename) {
  HoldD();
  ASSERT_TRUE(RenameSync("/d/f1", "/d/g", 1).ok());
  EXPECT_TRUE(StatMatchesActive("/d/f1"));
  EXPECT_EQ(StatSync("/d/f1").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(StatMatchesActive("/d/g"));
  EXPECT_TRUE(StatSync("/d/g").ok());
  EXPECT_TRUE(ListMatchesActive("/d"));
  ExpectNoMiss();
}

TEST_F(PatchEntryTest, CreatesParentMtimeReachesTheGrandparentsLine) {
  // The create moves /a/b's mtime: /a's line takes b's new entry.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/a/b/x", 1).ok());
  ASSERT_FALSE(StatMatchesActive("/a/b"));
  const SimTime before = StatSync("/a/b").value().mtime;
  const std::uint64_t misses = cluster_->client(0).counters().cache_misses;
  Run(kMillisecond);
  ASSERT_TRUE(CreateFile("/a/b/y", 1).ok());
  EXPECT_TRUE(StatMatchesActive("/a/b"));
  EXPECT_GT(StatSync("/a/b").value().mtime, before);
  EXPECT_EQ(cluster_->client(0).counters().cache_misses, misses);
}

// The orderings of a patch against the other messages of its lease. The
// active's first grant is lease id 1 at version 0, so a hand-made patch
// can name it; it travels the same link as the reply it races.
class PatchRaceTest : public ClientCacheTest {
 protected:
  void SendPatch(std::uint64_t version, const std::string& name,
                 std::uint64_t lease_id = 1,
                 std::optional<fsns::FileInfo> entry = {}) {
    core::MdsServer* active = cluster_->FindActive(0);
    ASSERT_NE(active, nullptr);
    auto push = std::make_shared<core::LeaseRevokeMsg>();
    push->leases.push_back({"/d", active->view().fence_token, lease_id,
                            version, name, 0, std::move(entry)});
    net_->Send(net::Envelope{.from = active->id(),
                             .to = cluster_->client(0).id(),
                             .payload = push});
  }
};

TEST_F(PatchRaceTest, ReplyServedBeforeAPatchButDeliveredAfterIt) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(CreateFile("/d/b").ok());
  ASSERT_TRUE(StatSync("/d/a").ok());  // line on /d: lease 1, version 0
  ASSERT_EQ(cluster_->FindActive(0)->counters().leases_granted, 1u);

  // The stat of /d/b is served at version 0 (require_active: the line
  // would answer it); a patch for version 1 (an addblock of /d/b) sent
  // now reaches the client first.
  fsns::FileInfo added = StatSync("/d/b").value();
  added.path.clear();
  added.block_count = 1;
  Result<fsns::FileInfo> b = Status::TimedOut("no reply");
  bool done = false;
  cluster_->client(0).GetFileInfo(
      "/d/b",
      [&](Result<fsns::FileInfo> r) {
        b = std::move(r);
        done = true;
      },
      {.require_active = true});
  SendPatch(1, "b", 1, added);
  testutil::WaitFor(*sim_, [&] { return done; }, kSecond, kMillisecond);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().block_count, 0u);
  // The reply is older than the line: it must not refill the line over
  // the patched entry for /d/b.
  const Result<fsns::FileInfo> patched = StatSync("/d/b");
  ASSERT_TRUE(patched.ok());
  EXPECT_TRUE(cluster_->client(0).last_stamp().via_cache);
  EXPECT_EQ(patched.value().block_count, 1u);
  // The entry the patch did not name survives it.
  ASSERT_TRUE(StatSync("/d/a").ok());
  EXPECT_TRUE(cluster_->client(0).last_stamp().via_cache);
}

TEST_F(PatchRaceTest, PatchArrivesBeforeTheClientHoldsTheLine) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  // The first read of /d draws lease 1 at version 0; a patch for version
  // 1 overtakes its reply.
  Result<fsns::FileInfo> a = Status::TimedOut("no reply");
  bool done = false;
  cluster_->client(0).GetFileInfo("/d/a", [&](Result<fsns::FileInfo> r) {
    a = std::move(r);
    done = true;
  });
  SendPatch(1, "a");
  testutil::WaitFor(*sim_, [&] { return done; }, kSecond, kMillisecond);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(cluster_->FindActive(0)->counters().leases_granted, 1u);
  // The patch left a dead line at version 1: the version-0 reply that
  // followed it must not fill a line.
  EXPECT_EQ(cluster_->client(0).cached_dirs(), 0u);
  ASSERT_TRUE(StatSync("/d/a").ok());
  EXPECT_FALSE(cluster_->client(0).last_stamp().via_cache);
}

TEST_F(PatchRaceTest, PushForANewerGrantKillsTheLineAndKeepsItsReplyOut) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(CreateFile("/d/a").ok());
  ASSERT_TRUE(StatSync("/d/a").ok());  // line on /d: lease 1, version 0
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  FsClient& holder = cluster_->client(0);

  // The active ends grant 1 unheard by its holder: a setTimes of /d
  // itself, sent in the holder's name from another endpoint, revokes it as
  // the holder's own, and the revocation rides that endpoint's ack.
  net::Host proxy(*net_, "proxy");
  proxy.Boot();
  auto req = std::make_shared<core::ClientRequestMsg>();
  req->op = core::ClientOp::kSetTimes;
  req->path = "/d";
  req->client = {.client_id = 1000, .op_seq = 1};
  req->requester = holder.id();
  bool touched = false;
  proxy.Call(active->id(), req, kSecond, [&](Result<net::MessagePtr> r) {
    touched = r.ok() && net::Cast<core::ClientResponseMsg>(r.value()).ok;
  });
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return touched; }, kSecond,
                                kMillisecond));
  ASSERT_EQ(holder.cached_dirs(), 1u);  // grant 1's line lives on

  // A read draws grant 2 at version 0; a push naming grant 2 at version 1
  // overtakes its reply.
  bool done = false;
  holder.GetFileInfo(
      "/d/a", [&](Result<fsns::FileInfo>) { done = true; },
      {.require_active = true});
  SendPatch(1, "b", /*lease_id=*/2);
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return done; }, kSecond,
                                kMillisecond));
  ASSERT_EQ(active->counters().leases_granted, 2u);
  // The push killed grant 1's line, and the dead line took grant 2's
  // identity at version 1, which keeps the version-0 reply out.
  EXPECT_EQ(holder.cached_dirs(), 0u);
  ASSERT_TRUE(StatSync("/d/a").ok());
  EXPECT_FALSE(holder.last_stamp().via_cache);
}

TEST_F(PatchRaceTest, PageFromTheNextVersionOvertakesItsPatch) {
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 1500, 1));
  const std::vector<std::string> names = SortedNames(1500);
  const std::string a = "/d/" + names[10];
  const std::string b = "/d/" + names[1200];
  FsClient& holder = cluster_->client(0);
  ASSERT_FALSE(StatMatchesActive(a));  // lease 1 at version 0
  ASSERT_FALSE(StatMatchesActive(b));
  ASSERT_EQ(holder.cached_pages("/d").size(), 2u);

  // An addblock of `a` moves /d to version 1; its patch to the holder is
  // held up (lost here, and sent again below).
  cluster_->faults().CutHalf(holder.id(), Faults::Half::kIn);
  cluster_->client(1).AddBlock(a, [](Status) {});
  Run(10 * kMillisecond);
  cluster_->faults().RestoreHalves(holder.id());
  // A stat of `b` served at version 1 brings the second page first.
  ASSERT_TRUE(StatSync(b, 0, {.require_active = true}).ok());
  SendPatch(1, names[10]);
  Run(kMillisecond);
  // The line is at version 1 and keeps only that page: the first page, at
  // version 0, would show `a` without its block.
  ASSERT_EQ(holder.cached_pages("/d").size(), 1u);
  const std::uint64_t off_page = CounterValue("client.cache_miss_off_page");
  EXPECT_FALSE(StatMatchesActive(a));
  EXPECT_EQ(CounterValue("client.cache_miss_off_page") - off_page, 1u);
  EXPECT_TRUE(StatMatchesActive(b));
}

TEST_F(PatchRaceTest, PageFromANewerVersionDropsThePatchedEntries) {
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 1500, 1));
  const std::vector<std::string> names = SortedNames(1500);
  const std::string a = "/d/" + names[10];
  const std::string b = "/d/" + names[1200];
  FsClient& holder = cluster_->client(0);
  ASSERT_FALSE(StatMatchesActive(a));  // both pages at version 0
  ASSERT_FALSE(StatMatchesActive(b));
  // An addblock of `a` patches its entry in place (version 1).
  ASSERT_TRUE(AddBlockSync(a, 1).ok());
  ASSERT_TRUE(StatMatchesActive(a));
  // A second addblock moves /d to version 2; its patch to the holder is
  // lost.
  cluster_->faults().CutHalf(holder.id(), Faults::Half::kIn);
  cluster_->client(1).AddBlock(a, [](Status) {});
  Run(10 * kMillisecond);
  cluster_->faults().RestoreHalves(holder.id());
  // A read served at version 2 brings `b`'s page: the line moves to it
  // and drops the first page with `a`'s entry from version 1, so a stat
  // of `a` goes to the wire and sees both blocks.
  ASSERT_TRUE(StatSync(b, 0, {.require_active = true}).ok());
  ASSERT_EQ(holder.cached_pages("/d").size(), 1u);
  EXPECT_FALSE(StatMatchesActive(a));
  EXPECT_EQ(StatSync(a).value().block_count, 2u);
}

TEST_F(PatchRaceTest, LostPatchGapDropsTheLineAndTheBarrierWaitsOutTheTtl) {
  Build(1, 2);
  ASSERT_TRUE(MkdirSync("/d").ok());
  ASSERT_TRUE(MkdirSync("/e", 1).ok());  // client 1 learns the active
  FsClient& holder = cluster_->client(0);
  const SimTime leased = sim_->Now();  // the grant expires after this + TTL
  ASSERT_EQ(StatSync("/d/c").status().code(), StatusCode::kNotFound);
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);

  // The patch for /d/c (version 1) is lost on the way to the holder.
  cluster_->faults().CutHalf(holder.id(), Faults::Half::kIn);
  bool first = false;
  cluster_->client(1).Create("/d/c", [&](Status s) { first = s.ok(); });
  Run(10 * kMillisecond);
  cluster_->faults().RestoreHalves(holder.id());
  // The next one (version 2) arrives: the holder sees the gap and drops
  // the whole line, its absent /d/c included.
  ASSERT_TRUE(CreateFile("/d/x", 1).ok());
  EXPECT_FALSE(first) << "the lost patch's barrier must hold the ack";
  // A fresh read re-leases /d at version 2, past the first barrier. The
  // gap dropped the line, so it goes to the wire: a line patched across
  // the gap would answer it from the fill at version 0.
  ASSERT_EQ(StatSync("/d/y").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(holder.last_stamp().via_cache);

  // The first create is acked once the lost patch's grant has expired.
  ASSERT_TRUE(testutil::WaitFor(*sim_, [&] { return first; }, 5 * kSecond,
                                kMillisecond));
  EXPECT_GE(sim_->Now(), leased + core::kLeaseTtl);
  EXPECT_EQ(active->counters().lease_barrier_expiries, 1u);
  // The refill at version 2 already shows /d/c, so this may be a hit.
  const Result<fsns::FileInfo> c = StatSync("/d/c");
  EXPECT_TRUE(c.ok()) << "stale absence served after the ack";
}

// Renewal: a read bound for the active names the client's hit lines near
// their deadline, and the active extends each grant still at the identity
// the line holds.
class RenewalTest : public ClientCacheTest {
 protected:
  /// A read bound for the active that touches no line: a carrier of
  /// `client`'s renewals.
  void Carry(int client = 0) {
    EXPECT_EQ(StatSync("/carrier/x", client, {.require_active = true})
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
  /// Carriers every 50 ms until `t`.
  void CarryUntil(SimTime t) {
    while (sim_->Now() < t) {
      Carry();
      Run(50 * kMillisecond);
    }
  }
  /// A stat of `path` from a bare endpoint to server `to`, naming
  /// `renewals`; the reply, or null.
  std::shared_ptr<const core::ClientResponseMsg> RawStat(
      net::Host& host, NodeId to, const std::string& path,
      std::vector<core::LeaseRenewal> renewals = {}) {
    auto req = std::make_shared<core::ClientRequestMsg>();
    req->path = path;
    req->client = {.client_id = 4000, .op_seq = ++raw_seq_};
    req->requester = host.id();
    req->renewals = std::move(renewals);
    std::shared_ptr<const core::ClientResponseMsg> out;
    bool done = false;
    host.Call(to, req, kSecond, [&](Result<net::MessagePtr> r) {
      if (r.ok()) {
        out = std::static_pointer_cast<const core::ClientResponseMsg>(
            std::move(r).value());
      }
      done = true;
    });
    // The call answers or times out within a second: inside this wait,
    // so the callback never outlives `out` and `done`.
    testutil::WaitFor(*sim_, [&] { return done; }, 2 * kSecond,
                      10 * kMicrosecond);
    return out;
  }
  std::uint64_t raw_seq_ = 0;
};

TEST_F(RenewalTest, HitLineLivesAcrossThreeTtlsAndMatchesTheActive) {
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 3, 1));
  FsClient& holder = cluster_->client(0);
  ASSERT_FALSE(StatMatchesActive("/d/f0"));
  const std::uint64_t misses = holder.counters().cache_misses;
  const SimTime end = sim_->Now() + 3 * core::kLeaseTtl;
  for (int i = 0; sim_->Now() < end; ++i) {
    EXPECT_TRUE(StatMatchesActive("/d/f" + std::to_string(i % 3)));
    // A patch moves the line's version; renewals go on at the new one.
    if (i == 20) {
      ASSERT_TRUE(CreateFile("/d/g", 1).ok());
    }
    Carry();
    Run(50 * kMillisecond);
  }
  EXPECT_TRUE(ListMatchesActive("/d"));
  EXPECT_TRUE(StatMatchesActive("/d/g"));
  EXPECT_EQ(holder.counters().cache_misses, misses);
  EXPECT_GE(CounterValue("client.cache_renewals_applied"), 3u);
}

TEST_F(RenewalTest, LineNotHitSinceItsRenewalExpiresAtItsDeadline) {
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 3, 1));
  FsClient& holder = cluster_->client(0);
  const SimTime filled = sim_->Now();
  ASSERT_FALSE(StatMatchesActive("/d/f0"));  // due at filled + TTL
  ASSERT_TRUE(StatSync("/d/f1").ok());
  ASSERT_TRUE(holder.last_stamp().via_cache);
  // Renewed once, in the last kRenewWindow before that deadline: past it
  // and a sweep, the line is still held.
  CarryUntil(filled + core::kLeaseTtl + core::kLeaseTtl / 8 +
             10 * kMillisecond);
  EXPECT_EQ(CounterValue("client.cache_renewals_applied"), 1u);
  EXPECT_EQ(holder.cached_pages("/d").size(), 1u);
  // Not hit since: the renewed deadline ends it.
  CarryUntil(filled + 2 * core::kLeaseTtl + core::kLeaseTtl / 8 +
             10 * kMillisecond);
  EXPECT_EQ(CounterValue("client.cache_renewals"), 1u);
  EXPECT_TRUE(holder.cached_pages("/d").empty());
  EXPECT_FALSE(StatMatchesActive("/d/f1"));
}

TEST_F(RenewalTest, LostPatchKeepsTheOldDeadlineAndTheAckWaitsOnlyForIt) {
  // A push lost on the way leaves the grant a version ahead of the line:
  // the renewal is refused, the line dies at its old deadline, and the
  // barrier releases the conflicting ack at that deadline. Renewing over
  // the gap would let the line serve the old absence past the ack.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/a", 1).ok());
  FsClient& holder = cluster_->client(0);
  const SimTime leased = sim_->Now();
  ASSERT_EQ(StatSync("/d/c").status().code(), StatusCode::kNotFound);
  ASSERT_EQ(StatSync("/d/c").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(holder.last_stamp().via_cache);
  const std::uint64_t refused = CounterValue("mds.lease_renewals_refused");

  cluster_->faults().CutHalf(holder.id(), Faults::Half::kIn);
  SimTime acked = 0;
  cluster_->client(1).Create("/d/c", [&](Status s) {
    if (s.ok()) acked = sim_->Now();
  });
  Run(10 * kMillisecond);
  cluster_->faults().RestoreHalves(holder.id());
  while (acked == 0 && sim_->Now() < leased + 2 * core::kLeaseTtl) {
    Carry();
    Run(10 * kMillisecond);
  }
  ASSERT_GT(acked, 0);
  EXPECT_LE(acked, leased + core::kLeaseTtl + 5 * kMillisecond);
  EXPECT_EQ(CounterValue("client.cache_renewals"), 1u);
  EXPECT_EQ(CounterValue("client.cache_renewals_applied"), 0u);
  EXPECT_EQ(CounterValue("mds.lease_renewals_refused") - refused, 1u);
  const Result<fsns::FileInfo> c = StatSync("/d/c");
  EXPECT_TRUE(c.ok()) << "stale absence served after the ack";
  EXPECT_FALSE(holder.last_stamp().via_cache);
}

TEST_F(RenewalTest, RenewalIsRefusedAcrossAFailover) {
  // The successor's grant, named with the deposed active's epoch, is
  // refused: a lease id alone names no grant across a failover (each
  // active numbers its own).
  Build(1, 3);
  ASSERT_TRUE(CreateFile("/d/a").ok());
  net::Host holder(*net_, "raw-holder");
  holder.Boot();
  core::MdsServer* first = cluster_->FindActive(0);
  ASSERT_NE(first, nullptr);
  const auto granted = RawStat(holder, first->id(), "/d/a");
  ASSERT_TRUE(granted && granted->lease_id != 0);
  first->Crash();
  Run(10 * kSecond);
  core::MdsServer* second = cluster_->FindActive(0);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(second, first);
  const auto regranted = RawStat(holder, second->id(), "/d/a");
  ASSERT_TRUE(regranted && regranted->lease_id != 0);
  ASSERT_GT(regranted->lease_epoch, granted->lease_epoch);

  const auto renewed = RawStat(
      holder, second->id(), "/x",
      {{"/d", granted->lease_epoch, granted->lease_id,
        granted->lease_version},
       {"/d", granted->lease_epoch, regranted->lease_id,
        regranted->lease_version},
       {"/d", regranted->lease_epoch, regranted->lease_id,
        regranted->lease_version}});
  ASSERT_TRUE(renewed);
  EXPECT_EQ(renewed->renewed, std::vector<std::uint32_t>{2});
  EXPECT_GT(renewed->renewed_until, regranted->lease_expire_at);
}

TEST_F(RenewalTest, RenewalIsRefusedOnceTheSessionGateCloses) {
  // Cut only the active <-> coordination frontend pair: the active keeps
  // serving while its session runs out. A renewal, like a grant, must
  // expire inside that session.
  Build(1, 2);
  ASSERT_TRUE(CreateFile("/d/a").ok());
  core::MdsServer* active = cluster_->FindActive(0);
  ASSERT_NE(active, nullptr);
  net::Host holder(*net_, "raw-holder");
  holder.Boot();
  const auto granted = RawStat(holder, active->id(), "/d/a");
  ASSERT_TRUE(granted && granted->lease_id != 0);
  const core::LeaseRenewal line{"/d", granted->lease_epoch,
                                granted->lease_id, granted->lease_version};

  const NodeId coord = cluster_->coord().frontend_id();
  net_->Partition(active->id(), coord);
  const SimTime ack = active->last_session_ack();
  const SimTime stop = ack + coord::kSessionTimeout - core::kLeaseTtl;
  int renewed = 0;
  int refused = 0;
  while (sim_->Now() < stop + 500 * kMillisecond) {
    ASSERT_EQ(active->role(), ServerState::kActive);
    const SimTime sent = sim_->Now();
    const auto resp = RawStat(holder, active->id(), "/x", {line});
    ASSERT_TRUE(resp);
    if (!resp->renewed.empty()) {
      ++renewed;
      EXPECT_LE(resp->renewed_until, ack + coord::kSessionTimeout);
    }
    if (sent > stop) {
      EXPECT_TRUE(resp->renewed.empty());
      ++refused;
    }
    Run(400 * kMillisecond);
  }
  net_->Heal(active->id(), coord);
  EXPECT_GE(renewed, 5);
  EXPECT_GE(refused, 1);
}

TEST_F(RenewalTest, PatchedBoundStopsRenewal) {
  // A line is renewed only while it has fewer patched children than its
  // pages hold: renewal must not let `patched` outgrow the bound the TTL
  // sets without it.
  Build(1, 2);
  ASSERT_TRUE(CreateMany("/d", 3, 1));
  FsClient& holder = cluster_->client(0);
  const SimTime filled = sim_->Now();
  ASSERT_FALSE(ListMatchesActive("/d"));
  ASSERT_TRUE(CreateFile("/d/x", 1).ok());  // 1 patched, 3 children
  ASSERT_TRUE(ListMatchesActive("/d"));
  CarryUntil(filled + core::kLeaseTtl + core::kLeaseTtl / 8 +
             10 * kMillisecond);
  ASSERT_EQ(CounterValue("client.cache_renewals_applied"), 1u);
  ASSERT_TRUE(CreateFile("/d/y", 1).ok());
  ASSERT_TRUE(CreateFile("/d/z", 1).ok());  // 3 patched, 3 children
  ASSERT_TRUE(ListMatchesActive("/d"));
  CarryUntil(filled + 2 * core::kLeaseTtl + core::kLeaseTtl / 8 +
             10 * kMillisecond);
  EXPECT_EQ(CounterValue("client.cache_renewals"), 1u);
  EXPECT_TRUE(holder.cached_pages("/d").empty());
  EXPECT_FALSE(ListMatchesActive("/d"));
}

TEST(LeaseRenewalWireTest, BothByteSizesCountRenewals) {
  core::ClientRequestMsg req;
  req.path = "/d/a";
  const std::size_t bare = req.ByteSize();
  req.renewals.push_back({"/dir", 1, 2, 3});
  req.renewals.push_back({"/d", 1, 2, 3});
  EXPECT_EQ(req.ByteSize(), bare + (24 + 4) + (24 + 2));
  core::ClientResponseMsg resp;
  const std::size_t plain = resp.ByteSize();
  resp.renewed = {0, 1};
  resp.renewed_until = kSecond;
  EXPECT_EQ(resp.ByteSize(), plain + 8 + 2 * 4);
}

}  // namespace
}  // namespace mams::cluster

namespace mams::check {
namespace {

FuzzProfile CacheProfile() {
  // The mams_check `cache` profile at 30 ops per client: one shared tree,
  // hot clients, mutation-heavy with a strong read component, so leases
  // are granted and revoked continuously and faults land inside
  // revocation windows.
  FuzzProfile profile;
  profile.ops_per_client = 30;
  ApplyProfile("cache", &profile);
  return profile;
}

TEST(ClientCacheSweepTest, CachedEqualsUncachedUnderFuzzedMutations) {
  // Cached and uncached runs of the same spec must both pass the checker
  // (audit reads pin the final state either way); the cached run's
  // cache-served reads additionally satisfy the completed-mutation floor.
  std::uint64_t cache_served = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunSpec spec = MakeSpec(seed, CacheProfile());
    ASSERT_TRUE(spec.client_cache);
    const RunResult cached = RunSpecOnce(spec);
    EXPECT_TRUE(cached.check.decided) << "seed " << seed;
    ASSERT_FALSE(cached.violated())
        << "seed " << seed << ": "
        << FormatViolation(cached.history, cached.violations[0]);
    for (const Event& e : cached.history.events()) {
      if (e.via_cache) ++cache_served;
    }

    spec.client_cache = false;
    const RunResult uncached = RunSpecOnce(spec);
    ASSERT_FALSE(uncached.violated())
        << "seed " << seed << " (uncached): "
        << FormatViolation(uncached.history, uncached.violations[0]);
  }
  // The sweep is not vacuous: the cache actually served reads.
  EXPECT_GT(cache_served, 0u);
}

TEST(ClientCacheSweepTest, ReproRoundTripKeepsClientCache) {
  RunSpec spec = MakeSpec(3, CacheProfile());
  const Result<RunSpec> reparsed = ParseSpec(SerializeSpec(spec));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_TRUE(reparsed.value().client_cache);
  EXPECT_EQ(SerializeSpec(reparsed.value()), SerializeSpec(spec));
}

TEST(MutationSelfTest, IgnoredLeaseRevokeIsCaught) {
  // An active that never pushes revocations leaves a dead lease serving
  // until its TTL; a read served from it after a conflicting mutation's ack
  // violates the checker's completed-mutation floor for cache hits. The
  // default profile keeps clients in disjoint trees (where the client's
  // own-ack invalidation hides the bug), so the self-test runs the
  // shared-tree cache profile.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RunSpec spec = MakeSpec(seed, CacheProfile());
    spec.mutation = Mutation::kIgnoreLeaseRevoke;
    RunResult result = RunSpecOnce(spec);
    if (!result.violated()) continue;

    const ShrinkResult shrunk = Shrink(spec, /*max_runs=*/80);
    ASSERT_TRUE(shrunk.result.violated())
        << "seed " << seed << ": shrunk spec no longer violates";

    const Result<RunSpec> reparsed = ParseSpec(SerializeSpec(shrunk.spec));
    ASSERT_TRUE(reparsed.ok());
    const RunResult replay = RunSpecOnce(reparsed.value());
    EXPECT_EQ(replay.run_digest, shrunk.result.run_digest) << "seed " << seed;
    EXPECT_TRUE(replay.violated());
    return;
  }
  FAIL() << "lease_revoke produced no violation in seeds 1..40 — the "
         << "checker would not catch a cache that serves past a revocation";
}

}  // namespace
}  // namespace mams::check
