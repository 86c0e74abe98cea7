// Tests for journal records, batches (serialization + checksums) and the
// journal sequencer (sn/txid assignment, sealing only on Flush, reseed).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "journal/record.hpp"
#include "journal/writer.hpp"
#include "sim/simulator.hpp"

namespace mams::journal {
namespace {

LogRecord Sample(TxId txid) {
  LogRecord r;
  r.txid = txid;
  r.op = OpCode::kCreate;
  r.path = "/dir/file" + std::to_string(txid);
  r.replication = 3;
  r.mtime = 123 * kMillisecond;
  r.client = {.client_id = 9, .op_seq = txid};
  return r;
}

TEST(LogRecordTest, SerializeRoundTrip) {
  LogRecord r = Sample(42);
  r.op = OpCode::kRename;
  r.path2 = "/dir/renamed";
  r.block = 77;
  r.inode_ids = {19, 20, 21};
  ByteWriter w;
  r.Serialize(w);
  EXPECT_EQ(w.bytes().size(), r.EncodedSize());
  ByteReader in(w.bytes());
  auto back = LogRecord::Deserialize(in);
  ASSERT_TRUE(back.ok());
  const LogRecord& b = back.value();
  EXPECT_EQ(b.txid, r.txid);
  EXPECT_EQ(b.op, r.op);
  EXPECT_EQ(b.path, r.path);
  EXPECT_EQ(b.path2, r.path2);
  EXPECT_EQ(b.replication, r.replication);
  EXPECT_EQ(b.block, r.block);
  EXPECT_EQ(b.mtime, r.mtime);
  EXPECT_EQ(b.client, r.client);
  EXPECT_EQ(b.inode_ids, r.inode_ids);
}

TEST(LogRecordTest, EmptyInodeIdsRoundTrip) {
  ByteWriter w;
  Sample(7).Serialize(w);
  ByteReader in(w.bytes());
  auto back = LogRecord::Deserialize(in);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().inode_ids.empty());
}

TEST(LogRecordTest, TruncationReturnsCorruption) {
  ByteWriter w;
  Sample(1).Serialize(w);
  std::vector<char> cut(w.bytes().begin(), w.bytes().end() - 4);
  ByteReader in(cut);
  auto back = LogRecord::Deserialize(in);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(BatchTest, SerializeRoundTrip) {
  Batch b;
  b.sn = 5;
  b.first_txid = 100;
  for (TxId t = 100; t < 110; ++t) b.records.push_back(Sample(t));
  const auto bytes = b.Serialize();
  auto back = Batch::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().sn, 5u);
  EXPECT_EQ(back.value().first_txid, 100u);
  ASSERT_EQ(back.value().records.size(), 10u);
  EXPECT_EQ(back.value().records[3].path, "/dir/file103");
}

TEST(BatchTest, ChecksumDetectsBitFlip) {
  Batch b;
  b.sn = 1;
  b.records.push_back(Sample(1));
  auto bytes = b.Serialize();
  bytes[bytes.size() / 2] ^= 0x40;
  auto back = Batch::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(BatchTest, HeaderTruncationDetected) {
  auto back = Batch::Deserialize(std::vector<char>(10, 0));
  ASSERT_FALSE(back.ok());
}

// --- Writer ----------------------------------------------------------------

class WriterTest : public ::testing::Test {
 protected:
  WriterTest() {
    writer_ = std::make_unique<Writer>([this](Batch b, std::vector<char> bytes) {
      batches_.push_back(std::move(b));
      bytes_.push_back(std::move(bytes));
    });
  }

  LogRecord Rec() {
    LogRecord r;
    r.op = OpCode::kMkdir;
    r.path = "/d";
    return r;
  }

  sim::Simulator sim_{3};
  std::vector<Batch> batches_;
  std::vector<std::vector<char>> bytes_;
  std::unique_ptr<Writer> writer_;
};

TEST_F(WriterTest, AppendNeverSealsAndFlushSealsEverythingUnderOneSn) {
  // The writer only sequences: however many records arrive and however
  // much virtual time passes, nothing seals and no event is scheduled
  // until its owner flushes — when a batch seals is the owner's rule.
  for (int i = 0; i < 300; ++i) writer_->Append(Rec());
  EXPECT_TRUE(sim_.idle());
  sim_.RunUntil(kSecond);
  EXPECT_TRUE(batches_.empty());
  EXPECT_EQ(writer_->pending_records(), 300u);

  writer_->Flush();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].sn, 1u);
  EXPECT_EQ(batches_[0].first_txid, 1u);
  EXPECT_EQ(batches_[0].records.size(), 300u);
  EXPECT_EQ(writer_->pending_records(), 0u);
  EXPECT_EQ(writer_->next_sn(), 2u);
}

TEST_F(WriterTest, TxidsAreContiguousAcrossBatches) {
  for (int i = 0; i < 10; ++i) {
    writer_->Append(Rec());
    if (i % 3 == 2) writer_->Flush();
  }
  writer_->Flush();
  EXPECT_EQ(batches_.size(), 4u);
  TxId expect = 1;
  for (const auto& b : batches_) {
    EXPECT_EQ(b.first_txid, expect);
    for (const auto& r : b.records) EXPECT_EQ(r.txid, expect++);
  }
  EXPECT_EQ(expect, 11u);
}

TEST_F(WriterTest, SnStrictlyIncreases) {
  for (int i = 0; i < 12; ++i) {
    writer_->Append(Rec());
    if (i % 4 == 3) writer_->Flush();
  }
  ASSERT_EQ(batches_.size(), 3u);
  SerialNumber prev = 0;
  for (const auto& b : batches_) {
    EXPECT_GT(b.sn, prev);
    prev = b.sn;
  }
}

TEST_F(WriterTest, ReseedContinuesSequence) {
  // Simulates a standby taking over: it reseeds from the last durable
  // <sn, txid> and its batches continue both sequences without overlap.
  writer_->Reseed(41, 1000);
  writer_->Append(Rec());
  writer_->Flush();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].sn, 42u);
  EXPECT_EQ(batches_[0].records[0].txid, 1001u);
}

TEST_F(WriterTest, FlushOnEmptyIsNoop) {
  writer_->Flush();
  EXPECT_TRUE(batches_.empty());
}

TEST_F(WriterTest, ChecksumPopulatedOnFlush) {
  writer_->Append(Rec());
  writer_->Flush();
  ASSERT_EQ(batches_.size(), 1u);
  const auto bytes = batches_[0].Serialize();
  auto back = Batch::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
}

TEST_F(WriterTest, SealedBytesAreTheSerializedBatch) {
  // The sink's bytes must be a faithful single-pass serialization: they
  // deserialize back to the sealed batch, checksum and all.
  writer_->Append(Rec());
  writer_->Flush();
  ASSERT_EQ(bytes_.size(), 1u);
  auto back = Batch::Deserialize(bytes_[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().sn, batches_[0].sn);
  EXPECT_EQ(back.value().checksum, batches_[0].checksum);
  EXPECT_EQ(back.value().records.size(), batches_[0].records.size());
  EXPECT_EQ(bytes_[0], batches_[0].Serialize());
}

TEST_F(WriterTest, AppendAndSealNeverCopyRecords) {
  // The batch hot path — append, seal, hand to sink — is move-only. A
  // stray by-value copy in that path would tax every mutation; pin it to
  // zero via the process-wide copy counter.
  const std::uint64_t before = LogRecordCopies();
  for (int i = 0; i < 12; ++i) writer_->Append(Rec());
  writer_->Flush();
  EXPECT_EQ(LogRecordCopies(), before);
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].records.size(), 12u);
}

}  // namespace
}  // namespace mams::journal
