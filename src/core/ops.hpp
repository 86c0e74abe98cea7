// What every namespace server (MdsServer and the baseline namenodes) does
// with a client request, written once: the journal record a mutation
// executes as, the reply a read gets, and the CPU an op costs.
#pragma once

#include "core/messages.hpp"
#include "core/options.hpp"

namespace mams::core {

/// The journal record a mutation request executes and journals as (see
/// fsns::Tree::Execute). Attribute ops reuse record fields: the owner
/// travels in path2 and the permission bits in replication. Every op but
/// create and setReplication journals replication 1. Precondition:
/// IsMutation(req.op).
journal::LogRecord RecordFor(const ClientRequestMsg& req, SimTime mtime);

/// Answers a read (kGetFileInfo or kListDir) from `tree` into `resp`.
void FillRead(const fsns::Tree& tree, const ClientRequestMsg& req,
              ClientResponseMsg& resp);

/// CPU service time of `op` at a namespace server, before journaling.
SimTime OpCost(ClientOp op);

/// CPU service time of ingesting `report` at a namespace server: one
/// `block_report_per_1k` charge per started thousand blocks.
SimTime BlockReportCost(const BlockReportMsg& report);

}  // namespace mams::core
