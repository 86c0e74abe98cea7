// RPC payloads for the shared storage pool (SSP).
#pragma once

#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/message_types.hpp"
#include "storage/shared_file.hpp"

namespace mams::storage {

struct SspWriteMsg final : net::Message {
  std::string file;
  SspRecord record;

  net::MsgType type() const noexcept override { return net::kSspWrite; }
  std::size_t ByteSize() const noexcept override {
    return 64 + file.size() + record.TimedSize();
  }
};

struct SspWriteAckMsg final : net::Message {
  bool ok = true;
  SerialNumber max_sn = 0;

  net::MsgType type() const noexcept override { return net::kSspWriteAck; }
};

struct SspReadMsg final : net::Message {
  std::string file;
  SerialNumber after_sn = 0;  ///< return records with sn > after_sn
  std::uint64_t max_bytes = 4u << 20;  ///< chunking for resumable fetches
  /// Nonzero: the reader holds the file's lock under this token, and the
  /// replica refuses appends from older writers from now on.
  FenceToken fence = 0;

  net::MsgType type() const noexcept override { return net::kSspRead; }
};

struct SspReadReplyMsg final : net::Message {
  std::vector<SspRecord> records;
  bool eof = true;  ///< no record follows the last one returned
  std::uint64_t payload_bytes = 0;

  net::MsgType type() const noexcept override { return net::kSspReadReply; }
  std::size_t ByteSize() const noexcept override {
    return 64 + payload_bytes;
  }
};

}  // namespace mams::storage
