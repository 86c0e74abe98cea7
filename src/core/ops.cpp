#include "core/ops.hpp"

#include <cstdlib>

namespace mams::core {

using journal::OpCode;

journal::LogRecord RecordFor(const ClientRequestMsg& req, SimTime mtime) {
  journal::LogRecord rec;
  rec.path = req.path;
  rec.mtime = mtime;
  rec.client = req.client;
  switch (req.op) {
    case ClientOp::kCreate:
      rec.op = OpCode::kCreate;
      rec.replication = req.replication;
      break;
    case ClientOp::kMkdir:
      rec.op = OpCode::kMkdir;
      break;
    case ClientOp::kDelete:
      rec.op = OpCode::kDelete;
      break;
    case ClientOp::kRename:
      rec.op = OpCode::kRename;
      rec.path2 = req.path2;
      break;
    case ClientOp::kSetReplication:
      rec.op = OpCode::kSetReplication;
      rec.replication = req.replication;
      break;
    case ClientOp::kAddBlock:
      rec.op = OpCode::kAddBlock;
      break;
    case ClientOp::kCompleteFile:
      rec.op = OpCode::kCompleteFile;
      break;
    case ClientOp::kSetOwner:
      rec.op = OpCode::kSetOwner;
      rec.path2 = req.owner;
      break;
    case ClientOp::kSetPermission:
      rec.op = OpCode::kSetPermission;
      rec.replication = req.permission;
      break;
    case ClientOp::kSetTimes:
      rec.op = OpCode::kSetTimes;
      break;
    case ClientOp::kGetFileInfo:
    case ClientOp::kListDir:
      std::abort();  // reads journal nothing
  }
  return rec;
}

void FillRead(const fsns::Tree& tree, const ClientRequestMsg& req,
              ClientResponseMsg& resp) {
  auto fill = [&resp](auto result, auto& field) {
    resp.ok = result.ok();
    if (result.ok()) {
      field = std::move(result).value();
    } else {
      resp.code = result.status().code();
      resp.error = result.status().message();
    }
  };
  if (req.op == ClientOp::kGetFileInfo) {
    fill(tree.GetFileInfo(req.path), resp.info);
  } else {  // kListDir
    fill(tree.ListDir(req.path), resp.listing);
  }
}

SimTime OpCost(ClientOp op) {
  const OpCosts& c = kOpCosts;
  switch (op) {
    case ClientOp::kCreate: return c.create;
    case ClientOp::kMkdir: return c.mkdir;
    case ClientOp::kDelete: return c.remove;
    case ClientOp::kRename: return c.rename;
    case ClientOp::kGetFileInfo: return c.getfileinfo;
    case ClientOp::kListDir: return c.listdir;
    case ClientOp::kSetReplication:
    case ClientOp::kAddBlock:
    case ClientOp::kCompleteFile:
    case ClientOp::kSetOwner:
    case ClientOp::kSetPermission:
    case ClientOp::kSetTimes: return c.add_block;
  }
  return c.getfileinfo;
}

SimTime BlockReportCost(const BlockReportMsg& report) {
  return kOpCosts.block_report_per_1k *
         static_cast<SimTime>(1 + report.EffectiveCount() / 1000);
}

}  // namespace mams::core
