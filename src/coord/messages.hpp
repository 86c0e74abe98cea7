// RPC payloads between coordination clients (metadata servers, node
// monitors, file-system clients) and the coordination service frontend.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "coord/view.hpp"
#include "net/message.hpp"
#include "net/message_types.hpp"

namespace mams::coord {

using SessionId = std::uint64_t;

/// Session timing (paper §IV.B), owned here and nowhere else: clients
/// heartbeat every kHeartbeatInterval, and the service expires a session
/// that stays silent for longer than kSessionTimeout. A metadata server's
/// lease-grant guard (ReadService::MaybeGrantLease) relies on the same
/// timeout to bound how long any of its grants can outlive its tenure.
inline constexpr SimTime kHeartbeatInterval = 2 * kSecond;
inline constexpr SimTime kSessionTimeout = 5 * kSecond;

enum class CoordOp : std::uint8_t {
  kRegister,       ///< join a group with an initial state; opens a session
  kSetState,       ///< change own or (as lock holder) a peer's state
  kTryLock,        ///< bid for the group lock (election)
  kReleaseLock,    ///< voluntary release
  kGetView,        ///< read-only snapshot
  kWatch,          ///< subscribe to group-view changes
  kPublishMap,     ///< install a newer namespace partition map
  kGetMap,         ///< fetch the current partition map
};

struct CoordRequestMsg final : net::Message {
  CoordOp op = CoordOp::kGetView;
  SessionId session = 0;
  GroupId group = 0;
  NodeId subject = kInvalidNode;       ///< node whose state is being set
  ServerState state = ServerState::kDown;
  // Election bid (Algorithm 1): random draw, tie-broken by journal sn.
  std::uint64_t draw = 0;
  SerialNumber max_sn = 0;
  FenceToken fence = 0;                ///< for fenced SetState by the holder
  // kPublishMap: the serialized shard::PartitionMap and its epoch (opaque
  // to the coordination layer; ordered by epoch).
  std::uint64_t map_epoch = 0;
  std::vector<char> map_bytes;

  net::MsgType type() const noexcept override { return net::kCoordRequest; }
};

struct CoordResponseMsg final : net::Message {
  bool ok = false;
  std::string error;
  SessionId session = 0;       ///< for kRegister
  bool lock_granted = false;   ///< for kTryLock
  NodeId lock_holder = kInvalidNode;
  FenceToken fence_token = 0;
  GroupView view;              ///< snapshot after the operation
  std::uint64_t map_epoch = 0;     ///< for kGetMap (0: none published)
  std::vector<char> map_bytes;     ///< for kGetMap

  net::MsgType type() const noexcept override { return net::kCoordResponse; }
};

/// Pushed to watchers on every group-view change. Carries the full new
/// view: the three watchers the paper describes (on self, on the active,
/// on the lock) are all satisfied by inspecting the snapshot.
struct WatchEventMsg final : net::Message {
  GroupView view;
  // Current partition map piggybacked on every event (epoch 0: none
  // published yet); servers adopt newer maps from any watch delivery.
  std::uint64_t map_epoch = 0;
  std::vector<char> map_bytes;
  net::MsgType type() const noexcept override { return net::kCoordWatchEvent; }
};

/// Session keep-alive, sent every kHeartbeatInterval.
struct HeartbeatMsg final : net::Message {
  SessionId session = 0;
  net::MsgType type() const noexcept override { return net::kCoordHeartbeat; }
};

}  // namespace mams::coord
