// Message model for the simulated network.
//
// Every protocol payload derives from net::Message and declares a unique
// compile-time type id (see message_types.hpp for the registry of ids).
// Messages travel as shared_ptr<const Message>; receivers downcast with
// net::Cast<T> after dispatching on type(). ByteSize() feeds the latency
// model — bulk payloads (journal batches, image chunks, block reports)
// override it so that transfer time scales with data volume, which is what
// makes Table I's image-size axis meaningful.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace mams::net {

/// Dense message-type ids; each protocol reserves a range.
using MsgType = std::uint16_t;

class Message {
 public:
  virtual ~Message() = default;
  virtual MsgType type() const noexcept = 0;
  /// Approximate wire size in bytes, for transmission-delay modelling.
  virtual std::size_t ByteSize() const noexcept { return 64; }
};

using MessagePtr = std::shared_ptr<const Message>;

/// Checked downcast; the caller has already dispatched on type(), so a
/// mismatch is a programming error (assert in debug, UB-free in release via
/// dynamic_cast returning null would hide bugs — we want the loud failure).
template <typename T>
const T& Cast(const MessagePtr& msg) {
  return static_cast<const T&>(*msg);
}

/// Wire envelope: addressing plus RPC correlation. `rpc_id` correlates one
/// attempt with its response and is fresh per attempt.
struct Envelope {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint64_t rpc_id = 0;  ///< 0 = one-way message
  bool is_response = false;
  MessagePtr payload;
};

}  // namespace mams::net
