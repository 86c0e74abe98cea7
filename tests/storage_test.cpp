// Tests for the storage substrate: disk model, shared files, pool nodes,
// and the SSP client (placement, replication, failover reads).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/disk.hpp"
#include "storage/pool_node.hpp"
#include "storage/shared_file.hpp"
#include "storage/ssp.hpp"

namespace mams::storage {
namespace {

// --- DiskModel -----------------------------------------------------------

TEST(DiskModelTest, ReadCostScalesWithSize) {
  DiskModel disk;
  const SimTime small = disk.ReadCost(1 << 20);
  const SimTime big = disk.ReadCost(100 << 20);
  EXPECT_GT(big, 50 * small / 10);  // clearly super-linear gap
  // 100 MB at 100 MB/s ≈ 1 s.
  EXPECT_NEAR(ToSeconds(big), 1.0, 0.1);
}

TEST(DiskModelTest, AppendIsCheaperThanRandomWrite) {
  DiskModel disk;
  EXPECT_LT(disk.AppendCost(4096), disk.WriteCost(4096));
}

// --- SharedFile ----------------------------------------------------------

TEST(SharedFileTest, AppendTracksMaxSnAndBytes) {
  SharedFile f;
  f.Append({.sn = 1, .bytes = {'a', 'b'}, .logical_bytes = 0});
  f.Append({.sn = 2, .bytes = {}, .logical_bytes = 100});
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.max_sn(), 2u);
  EXPECT_EQ(f.total_logical_bytes(), 102u);
}

TEST(SharedFileTest, FirstIndexAfterBinarySearch) {
  SharedFile f;
  for (SerialNumber sn : {2, 4, 6, 8}) f.Append({.sn = sn});
  EXPECT_EQ(f.FirstIndexAfter(0), 0u);
  EXPECT_EQ(f.FirstIndexAfter(2), 1u);
  EXPECT_EQ(f.FirstIndexAfter(5), 2u);
  EXPECT_EQ(f.FirstIndexAfter(8), 4u);
  EXPECT_EQ(f.FirstIndexAfter(100), 4u);
}

TEST(FileStoreTest, ListByPrefixAndRemove) {
  FileStore store;
  store.Open("g0/journal");
  store.Open("g0/image-5");
  store.Open("g1/journal");
  EXPECT_EQ(store.List("g0/").size(), 2u);
  EXPECT_EQ(store.List("").size(), 3u);
  store.Remove("g0/journal");
  EXPECT_FALSE(store.Exists("g0/journal"));
  store.Format();
  EXPECT_EQ(store.file_count(), 0u);
}

// --- PoolNode + SspClient --------------------------------------------------

class SspTest : public ::testing::Test {
 protected:
  SspTest() : sim_(1), net_(sim_), client_host_(net_, "mds") {
    for (int i = 0; i < 3; ++i) {
      pool_.push_back(std::make_unique<PoolNode>(net_, "pool" + std::to_string(i)));
      pool_.back()->Boot();
      pool_ids_.push_back(pool_.back()->id());
    }
    client_host_.Boot();
    ssp_ = std::make_unique<SspClient>(client_host_, pool_ids_);
  }

  SspRecord Rec(SerialNumber sn, std::uint64_t logical = 0) {
    SspRecord r;
    r.sn = sn;
    r.bytes = {'x'};
    r.logical_bytes = logical;
    return r;
  }

  sim::Simulator sim_;
  net::Network net_;
  net::Host client_host_;
  std::vector<std::unique_ptr<PoolNode>> pool_;
  std::vector<NodeId> pool_ids_;
  std::unique_ptr<SspClient> ssp_;
};

TEST_F(SspTest, PlacementIsDeterministicAndReplicated) {
  auto p1 = ssp_->Placement("g0/journal");
  auto p2 = ssp_->Placement("g0/journal");
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 2u);
  EXPECT_NE(p1[0], p1[1]);
}

TEST_F(SspTest, AppendReplicatesToAllPlacementNodes) {
  Status result = Status::Unavailable("pending");
  ssp_->Append("g0/journal", Rec(1), [&](Status s) { result = s; });
  sim_.RunAll();
  EXPECT_TRUE(result.ok());
  int copies = 0;
  for (auto& node : pool_) {
    if (node->store().Exists("g0/journal")) ++copies;
  }
  EXPECT_EQ(copies, 2);
}

TEST_F(SspTest, ReadAfterReturnsOnlyNewerRecords) {
  for (SerialNumber sn = 1; sn <= 5; ++sn) {
    ssp_->Append("f", Rec(sn), [](Status) {});
  }
  sim_.RunAll();
  std::vector<SerialNumber> got;
  ssp_->ReadAfter("f", 2, [&](Result<std::shared_ptr<const SspReadReplyMsg>> r) {
    ASSERT_TRUE(r.ok());
    for (const auto& rec : r.value()->records) got.push_back(rec.sn);
  });
  sim_.RunAll();
  EXPECT_EQ(got, (std::vector<SerialNumber>{3, 4, 5}));
}

TEST_F(SspTest, ReadFailsOverWhenPrimaryReplicaDown) {
  ssp_->Append("f", Rec(1), [](Status) {});
  sim_.RunAll();
  const auto placement = ssp_->Placement("f");
  // Kill the first replica; the read must succeed from the second.
  for (auto& node : pool_) {
    if (node->id() == placement[0]) node->Crash();
  }
  bool ok = false;
  ssp_->ReadAfter("f", 0, [&](Result<std::shared_ptr<const SspReadReplyMsg>> r) {
    ok = r.ok() && r.value()->found;
  });
  sim_.RunAll();
  EXPECT_TRUE(ok);
}

TEST_F(SspTest, ReadOfMissingFileReportsNotFound) {
  bool found = true;
  ssp_->ReadAfter("nope", 0,
                  [&](Result<std::shared_ptr<const SspReadReplyMsg>> r) {
                    ASSERT_TRUE(r.ok());
                    found = r.value()->found;
                  });
  sim_.RunAll();
  EXPECT_FALSE(found);
}

TEST_F(SspTest, ChunkedReadIsResumable) {
  // 10 records of 1 MB logical each with a 4 MB chunk limit: the first read
  // returns a strict prefix plus a resume cursor.
  for (SerialNumber sn = 1; sn <= 10; ++sn) {
    ssp_->Append("big", Rec(sn, 1 << 20), [](Status) {});
  }
  sim_.RunAll();
  std::size_t first_count = 0, next_index = 0;
  bool eof = true;
  ssp_->ReadAfter("big", 0,
                  [&](Result<std::shared_ptr<const SspReadReplyMsg>> r) {
                    ASSERT_TRUE(r.ok());
                    first_count = r.value()->records.size();
                    next_index = r.value()->next_index;
                    eof = r.value()->eof;
                  });
  sim_.RunAll();
  EXPECT_LT(first_count, 10u);
  EXPECT_FALSE(eof);

  std::size_t total = first_count;
  while (!eof) {
    ssp_->ReadIndex("big", next_index,
                    [&](Result<std::shared_ptr<const SspReadReplyMsg>> r) {
                      ASSERT_TRUE(r.ok());
                      total += r.value()->records.size();
                      next_index = r.value()->next_index;
                      eof = r.value()->eof;
                    });
    sim_.RunAll();
  }
  EXPECT_EQ(total, 10u);
}

TEST_F(SspTest, LargeImageReadTakesProportionalTime) {
  // A 256 MB logical image must take on the order of seconds to stream.
  // Images are written chunked (8 MB records, sn = chunk ordinal) so that
  // every individual RPC stays far below the read timeout.
  for (SerialNumber chunk = 1; chunk <= 32; ++chunk) {
    ssp_->Append("img", Rec(chunk, 8u << 20), [](Status) {});
  }
  sim_.RunAll();
  const SimTime start = sim_.Now();
  bool done = false;
  std::function<void(std::size_t)> read_all = [&](std::size_t index) {
    ssp_->ReadIndex("img", index,
                    [&](Result<std::shared_ptr<const SspReadReplyMsg>> r) {
                      ASSERT_TRUE(r.ok());
                      if (r.value()->eof) {
                        done = true;
                      } else {
                        read_all(r.value()->next_index);
                      }
                    });
  };
  read_all(0);
  sim_.RunAll();
  EXPECT_TRUE(done);
  const double secs = ToSeconds(sim_.Now() - start);
  EXPECT_GT(secs, 1.0);  // 256 MB at ~100 MB/s disk + GbE
}

TEST_F(SspTest, PoolNodeStoreSurvivesCrashRestart) {
  ssp_->Append("f", Rec(1), [](Status) {});
  sim_.RunAll();
  const auto placement = ssp_->Placement("f");
  PoolNode* replica = nullptr;
  for (auto& node : pool_) {
    if (node->id() == placement[0]) replica = node.get();
  }
  ASSERT_NE(replica, nullptr);
  replica->Crash();
  replica->Restart();
  sim_.RunAll();
  EXPECT_TRUE(replica->store().Exists("f"));  // durable on-disk state
}

}  // namespace
}  // namespace mams::storage
