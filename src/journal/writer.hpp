// Journal sequencer.
//
// "Multiple metadata modifications are aggregated before being submitted
// and written back to journals in an asynchronous way" (Section IV). The
// writer assigns txids as records arrive and seals everything pending into
// one sn-stamped Batch when its owner calls Flush; it never decides on its
// own when a batch seals (the MAMS active seals when a 2PC window slot is
// free and the batch's fan-out can start on its CPU, see
// CommitPath::SealIfSlotFree). A writer re-seeded with the last
// durable sn after failover continues the sequence.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "journal/record.hpp"

namespace mams::journal {

class Writer {
 public:
  /// `sink` receives each sealed batch plus its serialized bytes (the MAMS
  /// active sends the batch through the 2PC to standbys and appends the
  /// bytes to the SSP; sealing serializes exactly once, so the sink must
  /// not re-serialize).
  using BatchSink = std::function<void(Batch, std::vector<char>)>;

  explicit Writer(BatchSink sink) : sink_(std::move(sink)) {}

  /// Continues the sequence after <last_sn, last_txid> (failover reseed).
  void Reseed(SerialNumber last_sn, TxId last_txid) {
    next_sn_ = last_sn + 1;
    next_txid_ = last_txid + 1;
  }

  SerialNumber next_sn() const noexcept { return next_sn_; }
  TxId last_assigned_txid() const noexcept { return next_txid_ - 1; }

  /// Appends a record (txid assigned here) and returns the assigned txid.
  /// Never seals.
  TxId Append(LogRecord record) {
    record.txid = next_txid_++;
    pending_.push_back(std::move(record));
    return pending_.back().txid;
  }

  /// Seals every pending record into one batch under the next sn and emits
  /// it; a no-op when nothing is pending.
  void Flush() {
    if (pending_.empty()) return;
    Batch batch;
    batch.sn = next_sn_++;
    batch.first_txid = pending_.front().txid;
    batch.records = std::exchange(pending_, {});
    // A single serialization pass seals the checksum and yields the wire
    // bytes the sink's SSP append reuses (the records are not serialized a
    // second time downstream).
    std::vector<char> bytes = batch.SealAndSerialize();
    sink_(std::move(batch), std::move(bytes));
  }

  std::size_t pending_records() const noexcept { return pending_.size(); }
  const std::vector<LogRecord>& pending() const noexcept { return pending_; }

 private:
  BatchSink sink_;
  std::vector<LogRecord> pending_;
  SerialNumber next_sn_ = 1;
  TxId next_txid_ = 1;
};

}  // namespace mams::journal
