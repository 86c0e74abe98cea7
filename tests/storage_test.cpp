// Tests for the storage substrate: disk model, shared files, pool nodes,
// and the SSP client (placement, replication, draining every replica).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
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

  /// What one Drain delivered: the sns it applied in order, the size of
  /// each reply, and its final status.
  struct Drained {
    std::vector<SerialNumber> sns;
    std::vector<std::size_t> reply_sizes;
    Status status = Status::Unavailable("drain never finished");
  };

  /// Drains `file` into a cursor that starts at `after`, taking every
  /// record that extends it by one. A take past `max_replies` stops the
  /// drain as a caller that went away does.
  Drained DrainFrom(const std::string& file, SerialNumber after,
                    SerialNumber until = kNoBound,
                    std::size_t max_replies = kNoBound) {
    Drained out;
    SerialNumber cursor = after;
    ssp_->Drain(
        file, /*fence=*/0, [&cursor] { return cursor; }, until,
        [&](const SspReadReplyMsg& reply, std::function<void(bool)> next) {
          out.reply_sizes.push_back(reply.records.size());
          const SerialNumber before = cursor;
          for (const auto& rec : reply.records) {
            if (rec.sn != cursor + 1) continue;
            out.sns.push_back(rec.sn);
            ++cursor;
          }
          if (out.reply_sizes.size() < max_replies) next(cursor > before);
        },
        [&](Status st) { out.status = st; });
    sim_.RunAll();
    return out;
  }

  /// Pool node `i` of `file`'s placement.
  PoolNode& Replica(const std::string& file, std::size_t i) {
    const NodeId id = ssp_->Placement(file).at(i);
    return **std::find_if(pool_.begin(), pool_.end(),
                          [id](const auto& node) { return node->id() == id; });
  }

  static constexpr SerialNumber kNoBound =
      std::numeric_limits<SerialNumber>::max();

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

TEST_F(SspTest, ReplicasAndReadsShareOnePayload) {
  SspRecord rec = Rec(1);
  rec.bytes = std::vector<char>{'a', 'b', 'c'};
  const char* appended = rec.bytes.data();  // `rec` keeps the buffer alive
  ssp_->Append("f", rec, [](Status) {});
  sim_.RunAll();
  const SharedFile& a = Replica("f", 0).store().Open("f");
  const SharedFile& b = Replica("f", 1).store().Open("f");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a.records()[0].bytes.data(), appended);
  EXPECT_EQ(b.records()[0].bytes.data(), appended);

  // A read reply carries the stored buffer, not a copy of it.
  auto read = std::make_shared<SspReadMsg>();
  read->file = "f";
  const char* served = nullptr;
  client_host_.Call(Replica("f", 1).id(), read, SspClient::kReadTimeout,
                    [&](Result<net::MessagePtr> r) {
                      ASSERT_TRUE(r.ok());
                      const auto& reply =
                          net::Cast<SspReadReplyMsg>(r.value());
                      ASSERT_EQ(reply.records.size(), 1u);
                      served = reply.records[0].bytes.data();
                    });
  sim_.RunAll();
  EXPECT_EQ(served, appended);

  // A newer writer's record for the same sn replaces one replica's buffer;
  // the other replica keeps the bytes it stored.
  SspRecord newer = Rec(1);
  newer.fence = 1;
  newer.bytes = std::vector<char>{'x', 'y', 'z'};
  ASSERT_TRUE(Replica("f", 0).store().Open("f").Append(newer));
  EXPECT_EQ(a.records()[0].bytes.vector(), (std::vector<char>{'x', 'y', 'z'}));
  EXPECT_EQ(b.records()[0].bytes.data(), appended);
  EXPECT_EQ(b.records()[0].bytes.vector(), (std::vector<char>{'a', 'b', 'c'}));
}

TEST_F(SspTest, DrainReturnsOnlyNewerRecords) {
  for (SerialNumber sn = 1; sn <= 5; ++sn) {
    ssp_->Append("f", Rec(sn), [](Status) {});
  }
  sim_.RunAll();
  const Drained d = DrainFrom("f", 2);
  EXPECT_TRUE(d.status.ok());
  EXPECT_EQ(d.sns, (std::vector<SerialNumber>{3, 4, 5}));
  for (std::size_t size : d.reply_sizes) EXPECT_LE(size, 3u);
}

TEST_F(SspTest, ReadFailsOverWhenPrimaryReplicaDown) {
  ssp_->Append("f", Rec(1), [](Status) {});
  sim_.RunAll();
  // Kill the first replica; the drain must still get the record from the
  // second.
  Replica("f", 0).Crash();
  const Drained d = DrainFrom("f", 0);
  EXPECT_TRUE(d.status.ok());
  EXPECT_EQ(d.sns, (std::vector<SerialNumber>{1}));
}

TEST_F(SspTest, DrainWithNoReplicaAnsweringIsUnavailable) {
  ssp_->Append("f", Rec(1), [](Status) {});
  sim_.RunAll();
  Replica("f", 0).Crash();
  Replica("f", 1).Crash();
  const Drained d = DrainFrom("f", 0);
  EXPECT_EQ(d.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(d.sns.empty());
}

TEST_F(SspTest, ReadOfMissingFileReportsNotFound) {
  const Drained d = DrainFrom("nope", 0);
  EXPECT_TRUE(d.status.ok());  // the replicas answered, with no records
  EXPECT_TRUE(d.sns.empty());
  EXPECT_EQ(d.reply_sizes, (std::vector<std::size_t>{0, 0}));
}

TEST_F(SspTest, ChunkedReadIsResumable) {
  // 10 records of 1 MB logical each with a 4 MB chunk limit: each read
  // returns a strict prefix, and the cursor resumes the next one.
  for (SerialNumber sn = 1; sn <= 10; ++sn) {
    ssp_->Append("big", Rec(sn, 1 << 20), [](Status) {});
  }
  sim_.RunAll();
  // A caller that stops after the first chunk keeps its cursor...
  const Drained first = DrainFrom("big", 0, kNoBound, /*max_replies=*/1);
  ASSERT_EQ(first.reply_sizes.size(), 1u);
  EXPECT_GT(first.sns.size(), 0u);
  EXPECT_LT(first.sns.size(), 10u);
  // ... and a later drain from that cursor reads the rest, chunk by chunk.
  const Drained rest = DrainFrom("big", first.sns.back());
  EXPECT_TRUE(rest.status.ok());
  EXPECT_EQ(first.sns.size() + rest.sns.size(), 10u);
  EXPECT_EQ(rest.sns.back(), 10u);
  for (std::size_t size : rest.reply_sizes) EXPECT_LE(size, 4u);
}

TEST_F(SspTest, DrainMergesReplicasWithDisjointHoles) {
  // Appends ack on the first replica, so each replica may miss records the
  // other holds. Neither replica alone reaches past sn 2; together they
  // hold 1..6.
  SharedFile& a = Replica("f", 0).store().Open("f");
  SharedFile& b = Replica("f", 1).store().Open("f");
  for (SerialNumber sn : {1, 2, 4, 6}) a.Append(Rec(sn));
  for (SerialNumber sn : {1, 3, 5, 6}) b.Append(Rec(sn));
  const std::uint64_t& reads =
      sim_.obs().metrics().counter("ssp.read")->value;

  const std::uint64_t unbounded_from = reads;
  const Drained all = DrainFrom("f", 0);
  EXPECT_TRUE(all.status.ok());
  EXPECT_EQ(all.sns, (std::vector<SerialNumber>{1, 2, 3, 4, 5, 6}));
  // Two passes advance; a third finds nothing new and ends the drain.
  EXPECT_EQ(reads - unbounded_from, 6u);

  // Bounded at sn 6, the drain stops after the pass that reaches it.
  const std::uint64_t bounded_from = reads;
  const Drained bounded = DrainFrom("f", 0, /*until=*/6);
  EXPECT_EQ(bounded.sns, all.sns);
  EXPECT_EQ(reads - bounded_from, 4u);
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
  const Drained d = DrainFrom("img", 0);
  EXPECT_TRUE(d.status.ok());
  EXPECT_EQ(d.sns.size(), 32u);
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
