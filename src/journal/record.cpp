#include "journal/record.hpp"

namespace mams::journal {

namespace {

std::uint64_t g_log_record_copies = 0;

}  // namespace

LogRecord::LogRecord(const LogRecord& other)
    : txid(other.txid),
      op(other.op),
      path(other.path),
      path2(other.path2),
      replication(other.replication),
      block(other.block),
      mtime(other.mtime),
      client(other.client),
      inode_ids(other.inode_ids) {
  ++g_log_record_copies;
}

LogRecord& LogRecord::operator=(const LogRecord& other) {
  if (this != &other) {
    txid = other.txid;
    op = other.op;
    path = other.path;
    path2 = other.path2;
    replication = other.replication;
    block = other.block;
    mtime = other.mtime;
    client = other.client;
    inode_ids = other.inode_ids;
    ++g_log_record_copies;
  }
  return *this;
}

std::uint64_t LogRecordCopies() noexcept { return g_log_record_copies; }

const char* OpCodeName(OpCode op) noexcept {
  switch (op) {
    case OpCode::kCreate:
      return "create";
    case OpCode::kMkdir:
      return "mkdir";
    case OpCode::kDelete:
      return "delete";
    case OpCode::kRename:
      return "rename";
    case OpCode::kSetReplication:
      return "setReplication";
    case OpCode::kAddBlock:
      return "addBlock";
    case OpCode::kCompleteFile:
      return "completeFile";
    case OpCode::kSetOwner:
      return "setOwner";
    case OpCode::kSetPermission:
      return "setPermission";
    case OpCode::kSetTimes:
      return "setTimes";
    case OpCode::kShardInstallFile:
      return "shardInstallFile";
    case OpCode::kShardInstallDir:
      return "shardInstallDir";
    case OpCode::kShardInstallDedup:
      return "shardInstallDedup";
    case OpCode::kShardErase:
      return "shardErase";
    case OpCode::kShardMigrateBegin:
      return "shardMigrateBegin";
    case OpCode::kShardMigrateCutover:
      return "shardMigrateCutover";
    case OpCode::kShardMigrateEnd:
      return "shardMigrateEnd";
    case OpCode::kShardMigrateAbort:
      return "shardMigrateAbort";
    case OpCode::kShardAcquire:
      return "shardAcquire";
    case OpCode::kShardDiscard:
      return "shardDiscard";
    case OpCode::kShardInboundBegin:
      return "shardInboundBegin";
    case OpCode::kTxIntent:
      return "txIntent";
    case OpCode::kTxCommit:
      return "txCommit";
    case OpCode::kTxFinish:
      return "txFinish";
    case OpCode::kTxAbort:
      return "txAbort";
  }
  return "unknown";
}

void LogRecord::Serialize(ByteWriter& out) const {
  out.U64(txid);
  out.U8(static_cast<std::uint8_t>(op));
  out.U8(0);  // reserved: keeps the record layout and message sizes
  out.Str(path);
  out.Str(path2);
  out.U32(replication);
  out.U64(block);
  out.I64(mtime);
  out.U64(client.client_id);
  out.U64(client.op_seq);
  out.U32(static_cast<std::uint32_t>(inode_ids.size()));
  for (InodeId id : inode_ids) out.U64(id);
}

Result<LogRecord> LogRecord::Deserialize(ByteReader& in) {
  LogRecord r;
  r.txid = in.U64();
  r.op = static_cast<OpCode>(in.U8());
  in.U8();  // reserved
  r.path = in.Str();
  r.path2 = in.Str();
  r.replication = in.U32();
  r.block = in.U64();
  r.mtime = in.I64();
  r.client.client_id = in.U64();
  r.client.op_seq = in.U64();
  const std::uint32_t ids = in.U32();
  if (!in.ok()) return Status::Corruption("truncated log record");
  r.inode_ids.reserve(ids);
  for (std::uint32_t i = 0; i < ids; ++i) r.inode_ids.push_back(in.U64());
  if (!in.ok()) return Status::Corruption("truncated log record");
  return r;
}

std::vector<char> Batch::SealAndSerialize() {
  ByteWriter body;
  for (const auto& r : records) r.Serialize(body);
  checksum = body.Checksum();

  ByteWriter out;
  out.U64(sn);
  out.U64(first_txid);
  out.U32(static_cast<std::uint32_t>(records.size()));
  out.U64(checksum);
  out.Raw(body.bytes().data(), body.bytes().size());
  return std::move(out).Take();
}

std::vector<char> Batch::Serialize() const {
  ByteWriter body;
  for (const auto& r : records) r.Serialize(body);
  const std::uint64_t sum = body.Checksum();

  ByteWriter out;
  out.U64(sn);
  out.U64(first_txid);
  out.U32(static_cast<std::uint32_t>(records.size()));
  out.U64(sum);
  out.Raw(body.bytes().data(), body.bytes().size());
  return std::move(out).Take();
}

Result<Batch> Batch::Deserialize(const std::vector<char>& bytes) {
  ByteReader in(bytes);
  Batch b;
  b.sn = in.U64();
  b.first_txid = in.U64();
  const std::uint32_t count = in.U32();
  b.checksum = in.U64();
  if (!in.ok()) return Status::Corruption("truncated batch header");
  const std::size_t body_offset = bytes.size() - in.remaining();
  const std::uint64_t actual =
      Fnv1a(bytes.data() + body_offset, in.remaining());
  if (actual != b.checksum) {
    return Status::Corruption("batch checksum mismatch");
  }
  b.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto record = LogRecord::Deserialize(in);
    if (!record.ok()) return record.status();
    b.records.push_back(std::move(record).value());
  }
  return b;
}

}  // namespace mams::journal
