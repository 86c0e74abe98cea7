// In-pool representation of a shared file: an append-only sequence of
// records. Journal segments append batches tagged with their serial number
// (sn); image files hold a single large record tagged with the sn of the
// last transaction folded into the checkpoint.
//
// Records separate *real* payload bytes (used by correctness paths — a
// junior really replays these) from a *logical* size (used by the timing
// model). Benchmarks that emulate multi-gigabyte images set logical sizes
// far above the real payload so that recovery timing matches the paper's
// scale without materializing 7M inodes in RAM; unit tests keep the two
// equal. See EXPERIMENTS.md "image scaling".
//
// A record's payload is immutable and shared: the write message sent to
// each replica, every replica's stored record and every read reply hold
// one buffer, so the pool keeps each byte once however many copies it
// models. A replica's record changes only by replacing its buffer (a
// same-sn append from a newer writer), never by writing through it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mams::storage {

/// An immutable, reference-counted byte buffer. Copies share the bytes;
/// nothing writes through them.
class Payload {
 public:
  Payload() = default;
  /// Takes the bytes over (no copy).
  Payload(std::vector<char> bytes)  // NOLINT: a serialized buffer assigns in
      : buf_(std::make_shared<const std::vector<char>>(std::move(bytes))) {}
  Payload(std::initializer_list<char> bytes)
      : Payload(std::vector<char>(bytes)) {}

  const std::vector<char>& vector() const noexcept {
    static const std::vector<char> kEmpty;
    return buf_ ? *buf_ : kEmpty;
  }
  const char* data() const noexcept { return vector().data(); }
  std::size_t size() const noexcept { return buf_ ? buf_->size() : 0; }
  auto begin() const noexcept { return vector().begin(); }
  auto end() const noexcept { return vector().end(); }
  char operator[](std::size_t i) const { return vector()[i]; }

 private:
  std::shared_ptr<const std::vector<char>> buf_;
};

struct SspRecord {
  SerialNumber sn = 0;
  Payload bytes;                    ///< real serialized payload, shared
  std::uint64_t logical_bytes = 0;  ///< size used by the timing model
  /// Fencing token of the writer. The pool rejects appends from writers
  /// older than the newest it has seen per file, and a same-sn record from
  /// a NEWER writer replaces a stale one — this is the IO-fencing property
  /// Section III.C relies on ("no scenario that two metadata servers
  /// access the same shared file simultaneously").
  FenceToken fence = 0;

  std::uint64_t TimedSize() const noexcept {
    return logical_bytes != 0 ? logical_bytes : bytes.size();
  }
};

class SharedFile {
 public:
  /// Appends keeping records sorted by sn. The network may reorder two
  /// in-flight writes, and a sender may retry one that was actually stored;
  /// insertion-sort from the back plus the same-sn check absorbs both.
  /// Fencing: appends from a writer older than the newest seen are
  /// rejected (returns false), and a same-sn record from a newer writer
  /// replaces the stale one — a deposed active's late flushes can neither
  /// pollute the log nor shadow the new active's batches.
  bool Append(SspRecord record) {
    if (record.fence < max_fence_) return false;  // stale writer fenced off
    if (record.fence > max_fence_) max_fence_ = record.fence;
    if (record.sn != 0) {
      const std::size_t i = IndexOfSn(record.sn);
      if (i != records_.size()) {
        if (records_[i].fence >= record.fence) return true;  // a repeat
        total_logical_ += record.TimedSize() - records_[i].TimedSize();
        records_[i] = std::move(record);  // newer writer wins the slot
        return true;
      }
    }
    total_logical_ += record.TimedSize();
    if (record.sn > max_sn_) max_sn_ = record.sn;
    auto pos = records_.end();
    while (pos != records_.begin() && std::prev(pos)->sn > record.sn) --pos;
    records_.insert(pos, std::move(record));
    return true;
  }

  /// Index of the record with exactly `sn`, or size() when absent.
  std::size_t IndexOfSn(SerialNumber sn) const noexcept {
    const std::size_t i = FirstIndexAfter(sn == 0 ? 0 : sn - 1);
    return (i < records_.size() && records_[i].sn == sn) ? i
                                                         : records_.size();
  }

  FenceToken max_fence() const noexcept { return max_fence_; }
  /// Fences off writers older than `fence` without appending (a new lock
  /// holder reading the file before its first write).
  void RaiseFence(FenceToken fence) noexcept {
    max_fence_ = std::max(max_fence_, fence);
  }

  const std::vector<SspRecord>& records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }
  SerialNumber max_sn() const noexcept { return max_sn_; }
  std::uint64_t total_logical_bytes() const noexcept { return total_logical_; }

  /// Index of the first record with sn > `after`; records are appended in
  /// sn order by construction.
  std::size_t FirstIndexAfter(SerialNumber after) const noexcept {
    std::size_t lo = 0, hi = records_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (records_[mid].sn <= after) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void Truncate() {
    records_.clear();
    max_sn_ = 0;
    total_logical_ = 0;
  }

 private:
  std::vector<SspRecord> records_;
  SerialNumber max_sn_ = 0;
  FenceToken max_fence_ = 0;
  std::uint64_t total_logical_ = 0;
};

/// A pool node's durable store: file name -> shared file. Survives process
/// crash/restart (it models the on-disk state), cleared only by Format().
class FileStore {
 public:
  SharedFile& Open(const std::string& name) { return files_[name]; }

  const SharedFile* Find(const std::string& name) const {
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : &it->second;
  }

  bool Exists(const std::string& name) const { return files_.contains(name); }

  std::vector<std::string> List(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& [name, file] : files_) {
      if (name.rfind(prefix, 0) == 0) out.push_back(name);
    }
    return out;
  }

  void Remove(const std::string& name) { files_.erase(name); }
  void Format() { files_.clear(); }
  std::size_t file_count() const noexcept { return files_.size(); }

 private:
  std::map<std::string, SharedFile> files_;
};

}  // namespace mams::storage
