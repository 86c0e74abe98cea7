// A pool node serves SSP RPCs backed by its durable FileStore. In the paper
// the pool is "built on existing active or backup servers and needs no
// additional device": accordingly, a PoolNode is usually co-hosted (same
// simulated machine) with a metadata or backup server — the cluster layer
// wires that up — but it is its own Host here so pool traffic is explicit.
//
// Disk time is charged before replying, serializing accesses per node
// through a simple busy-until cursor (one disk arm).
#pragma once

#include <algorithm>
#include <memory>

#include "net/host.hpp"
#include "storage/disk.hpp"
#include "storage/shared_file.hpp"
#include "storage/ssp_messages.hpp"

namespace mams::storage {

class PoolNode : public net::Host {
 public:
  PoolNode(net::Network& network, std::string name, DiskParams disk = {})
      : net::Host(network, std::move(name)), disk_(disk) {
    RegisterHandlers();
  }

  FileStore& store() noexcept { return store_; }
  const FileStore& store() const noexcept { return store_; }

  /// Gray-failure injection: multiplies every disk charge by `factor`
  /// (>= 1). The node stays up and keeps answering — just pathologically
  /// slowly, the failure mode crash detectors never see. 1 restores the
  /// healthy disk.
  void SetDiskSlowdown(double factor) noexcept {
    slowdown_ = factor < 1.0 ? 1.0 : factor;
  }
  double disk_slowdown() const noexcept { return slowdown_; }

 private:
  void RegisterHandlers() {
    OnRequest(net::kSspWrite, [this](const net::Envelope&,
                                     const net::MessagePtr& msg,
                                     const ReplyFn& reply) {
      const SimTime cost =
          disk_.AppendCost(net::Cast<SspWriteMsg>(msg).record.TimedSize());
      WithDisk(cost, [this, msg, reply] {
        const auto& req = net::Cast<SspWriteMsg>(msg);
        auto& file = store_.Open(req.file);
        auto ack = std::make_shared<SspWriteAckMsg>();
        // The stored record shares the message's payload.
        ack->ok = file.Append(req.record);  // false = writer fenced off
        ack->max_sn = file.max_sn();
        reply(ack);
      });
    });

    OnRequest(net::kSspRead, [this](const net::Envelope&,
                                    const net::MessagePtr& msg,
                                    const ReplyFn& reply) {
      const auto& req = net::Cast<SspReadMsg>(msg);
      if (req.fence != 0) store_.Open(req.file).RaiseFence(req.fence);
      auto out = std::make_shared<SspReadReplyMsg>();
      const SharedFile* file = store_.Find(req.file);
      if (file == nullptr) {
        WithDisk(disk_.params().sequential_latency,
                 [reply, out] { reply(out); });
        return;
      }
      std::size_t i = file->FirstIndexAfter(req.after_sn);
      std::uint64_t bytes = 0;
      while (i < file->size() && bytes < req.max_bytes) {
        out->records.push_back(file->records()[i]);
        bytes += file->records()[i].TimedSize();
        ++i;
      }
      out->eof = (i >= file->size());
      out->payload_bytes = bytes;
      WithDisk(disk_.ReadCost(bytes), [reply, out] { reply(out); });
    });
  }

  /// Charges disk time, serializing through a single-arm busy cursor.
  void WithDisk(SimTime cost, std::function<void()> done) {
    const SimTime charged =
        static_cast<SimTime>(static_cast<double>(cost) * slowdown_);
    const SimTime start = std::max(sim().Now(), disk_free_at_);
    disk_free_at_ = start + charged;
    AfterLocal(disk_free_at_ - sim().Now(), std::move(done));
  }

  DiskModel disk_;
  FileStore store_;
  SimTime disk_free_at_ = 0;
  double slowdown_ = 1.0;
};

}  // namespace mams::storage
