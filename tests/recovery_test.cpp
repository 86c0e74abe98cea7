// Tests for point-in-time recovery (the paper's named future work): any
// historical namespace state is reconstructible offline from a pool node's
// durable journal + images.
#include <gtest/gtest.h>
#include <limits>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "core/pool_files.hpp"
#include "core/recovery.hpp"
#include "journal/record.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace mams::core {
namespace {

using journal::OpCode;
using testutil::Rec;

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : sim_(41), net_(sim_) {
    cluster::CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 2;
    cfg.clients = 1;
    cfg.data_servers = 1;
    cfg.mds.checkpoint_interval = 4 * kSecond;
    cfs_ = std::make_unique<cluster::CfsCluster>(net_, cfg);
    cfs_->Start();
    sim_.RunUntil(sim_.Now() + kSecond);
  }

  void Run(SimTime dt) { sim_.RunUntil(sim_.Now() + dt); }

  void CreateFileOk(const std::string& path) {
    Status out = Status::TimedOut("pending");
    bool done = false;
    cfs_->client(0).Create(path, [&](Status s) {
      out = s;
      done = true;
    });
    testutil::WaitFor(sim_, [&] { return done; }, 60 * kSecond);
    ASSERT_TRUE(out.ok()) << path << ": " << out.ToString();
  }

  /// A pool node that holds the group journal replica — preferring one
  /// that also holds an image (with 3 pool nodes and 2-way replication of
  /// each file, at least one node holds both when an image exists).
  const storage::FileStore& JournalStore() {
    const storage::FileStore* journal_only = nullptr;
    for (int p = 0; p < 3; ++p) {
      const auto& store = cfs_->pool_node(p).store();
      if (!store.Exists("g0/journal")) continue;
      if (!store.List("g0/image-").empty()) return store;
      if (journal_only == nullptr) journal_only = &store;
    }
    return journal_only != nullptr ? *journal_only
                                   : cfs_->pool_node(0).store();
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<cluster::CfsCluster> cfs_;
};

TEST_F(RecoveryTest, LatestStateMatchesLiveActive) {
  for (int i = 0; i < 25; ++i) CreateFileOk("/r/f" + std::to_string(i));
  Run(2 * kSecond);
  const auto& store = JournalStore();
  const TxId latest = RecoveryTool::LatestRecoverableTxid(store, 0);
  EXPECT_GT(latest, 0u);

  RecoveryReport report;
  auto tree = RecoveryTool::RebuildAt(store, 0, latest, &report);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree.value().Fingerprint(),
            cfs_->FindActive(0)->tree().Fingerprint());
  EXPECT_EQ(report.recovered_txid, latest);
}

TEST_F(RecoveryTest, IntermediatePointsArePrefixes) {
  for (int i = 0; i < 20; ++i) CreateFileOk("/p/f" + std::to_string(i));
  Run(kSecond);
  const auto& store = JournalStore();
  const TxId latest = RecoveryTool::LatestRecoverableTxid(store, 0);

  // Rebuild at an early point: a strict prefix of the files must exist.
  auto early = RecoveryTool::RebuildAt(store, 0, latest / 2);
  ASSERT_TRUE(early.ok());
  auto full = RecoveryTool::RebuildAt(store, 0, latest);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(early.value().file_count(), full.value().file_count());
  EXPECT_GT(early.value().file_count(), 0u);
  // Everything in the early tree exists in the full tree (creates only).
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/p/f" + std::to_string(i);
    if (early.value().Exists(path)) {
      EXPECT_TRUE(full.value().Exists(path)) << path;
    }
  }
}

TEST_F(RecoveryTest, UsesCheckpointImageAsBase) {
  for (int i = 0; i < 15; ++i) CreateFileOk("/c/f" + std::to_string(i));
  Run(6 * kSecond);  // past a checkpoint tick
  for (int i = 15; i < 20; ++i) CreateFileOk("/c/f" + std::to_string(i));
  Run(kSecond);

  const auto& store = JournalStore();
  const TxId latest = RecoveryTool::LatestRecoverableTxid(store, 0);
  RecoveryReport report;
  auto tree = RecoveryTool::RebuildAt(store, 0, latest, &report);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(report.base_image_sn, 0u) << "expected an image base";
  EXPECT_FALSE(report.base_image_file.empty());
  EXPECT_EQ(tree.value().Fingerprint(),
            cfs_->FindActive(0)->tree().Fingerprint());
}

TEST(PoolFilesTest, ImageNameFoldsItsSnUnderTheGroupPrefix) {
  const std::string name = pool_files::Image(3, 1234, 7);
  EXPECT_EQ(name, "g3/image-1234-f7");
  EXPECT_EQ(name.rfind(pool_files::ImagePrefix(3), 0), 0u);
  EXPECT_EQ(pool_files::ImageSn(3, name), 1234u);
  EXPECT_EQ(pool_files::Journal(3), "g3/journal");
}

TEST_F(RecoveryTest, SurvivesWholeClusterLoss) {
  for (int i = 0; i < 10; ++i) CreateFileOk("/loss/f" + std::to_string(i));
  Run(kSecond);
  // Kill every metadata server: only pool disks remain.
  for (std::size_t m = 0; m < cfs_->group_size(0); ++m) {
    cfs_->mds(0, static_cast<int>(m)).Crash();
  }
  const auto& store = JournalStore();
  auto tree = RecoveryTool::RebuildAt(
      store, 0, RecoveryTool::LatestRecoverableTxid(store, 0));
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(tree.value().Exists("/loss/f" + std::to_string(i)));
  }
}

TEST_F(RecoveryTest, MissingGroupReportsNotFound) {
  const auto& store = JournalStore();
  auto tree = RecoveryTool::RebuildAt(store, 42, 100);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kNotFound);
}

TEST_F(RecoveryTest, RecoveryIgnoresCorruptJournalTail) {
  for (int i = 0; i < 8; ++i) CreateFileOk("/k/f" + std::to_string(i));
  Run(kSecond);
  // Corrupt the newest journal record on the replica we read from. The
  // payload is shared with the other placement replica, so the corruption
  // replaces this replica's buffer with a flipped copy, as a same-sn record
  // from a newer writer would.
  const storage::FileStore& read_from = JournalStore();
  storage::FileStore* store = nullptr;
  storage::FileStore* other = nullptr;
  for (int p = 0; p < 3; ++p) {
    storage::FileStore& s = cfs_->pool_node(p).store();
    if (&s == &read_from) {
      store = &s;
    } else if (s.Exists("g0/journal")) {
      other = &s;
    }
  }
  ASSERT_NE(store, nullptr);
  ASSERT_NE(other, nullptr);
  auto& file = store->Open("g0/journal");
  ASSERT_GT(file.size(), 0u);
  storage::SspRecord corrupt = file.records().back();
  std::vector<char> bytes = corrupt.bytes.vector();
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x10;
  corrupt.bytes = std::move(bytes);
  corrupt.fence = file.max_fence() + 1;
  ASSERT_TRUE(file.Append(std::move(corrupt)));

  RecoveryReport report;
  auto tree = RecoveryTool::RebuildAt(
      *store, 0, std::numeric_limits<TxId>::max(), &report);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(report.corrupt_batches_skipped, 1u);
  EXPECT_GT(tree.value().file_count(), 0u);

  // The other replica's copy of that record kept its bytes.
  RecoveryReport intact;
  auto rebuilt = RecoveryTool::RebuildAt(
      *other, 0, std::numeric_limits<TxId>::max(), &intact);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(intact.corrupt_batches_skipped, 0u);
  EXPECT_GT(rebuilt.value().file_count(), 0u);
}

TEST_F(RecoveryTest, BatchCutAtEveryTxidMatchesRecordByRecordReplay) {
  // Hand-built 4-record batches whose records depend on each other: a
  // create materializes a directory, a rename moves its file out, a second
  // create refills it and a subtree delete drops it. Rebuilding at every
  // txid cuts each batch at every position.
  fsns::Tree live;
  const ClientOpId none{};
  std::vector<journal::LogRecord> records;
  auto push = [&](Result<journal::LogRecord> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    journal::LogRecord rec = std::move(r).value();
    rec.txid = static_cast<TxId>(records.size() + 1);
    live.set_last_txid(rec.txid);
    records.push_back(std::move(rec));
  };
  push(live.Execute(Rec(OpCode::kMkdir, "/d", 1, none)));
  push(live.Execute(Rec(OpCode::kMkdir, "/e", 2, none)));
  push(live.Create("/d/seed", 1, 3, none));
  push(live.Execute(Rec(OpCode::kRename, "/d/seed", 4, none, "/e/seed")));
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/d/a" + std::to_string(i);
    const SimTime t = 10 * (i + 1);
    push(live.Create(dir + "/f", 1, t, none));
    push(live.Execute(Rec(OpCode::kRename, dir + "/f", t + 1, none,
                          "/e/f" + std::to_string(i))));
    push(live.Create(dir + "/g", 1, t + 2, none));
    push(live.Execute(Rec(OpCode::kDelete, dir, t + 3, none)));
  }

  storage::FileStore store;
  storage::SharedFile& journal = store.Open("g0/journal");
  constexpr std::size_t kPerBatch = 4;
  for (std::size_t lo = 0; lo < records.size(); lo += kPerBatch) {
    journal::Batch batch;
    batch.sn = lo / kPerBatch + 1;
    batch.first_txid = records[lo].txid;
    batch.records.assign(records.begin() + static_cast<long>(lo),
                         records.begin() + static_cast<long>(lo + kPerBatch));
    ASSERT_TRUE(journal.Append({.sn = batch.sn,
                                .bytes = batch.SealAndSerialize()}));
  }

  fsns::Tree reference;
  for (TxId t = 0; t <= records.size(); ++t) {
    if (t > 0) {
      ASSERT_TRUE(reference.Apply(records[t - 1]).ok());
    }
    RecoveryReport report;
    auto rebuilt = RecoveryTool::RebuildAt(store, 0, t, &report);
    ASSERT_TRUE(rebuilt.ok()) << "txid " << t << ": "
                              << rebuilt.status().ToString();
    EXPECT_EQ(rebuilt.value().Fingerprint(), reference.Fingerprint())
        << "txid " << t;
    EXPECT_EQ(rebuilt.value().last_txid(), reference.last_txid())
        << "txid " << t;
    EXPECT_EQ(report.records_replayed, t);
  }
  EXPECT_EQ(reference.Fingerprint(), live.Fingerprint());
}

}  // namespace
}  // namespace mams::core
