// Vanilla HDFS: a single NameNode with a local edit log and no reliability
// mechanism at all — the performance baseline of Figures 5 and 6. A crash
// simply ends the service (no MTTR row for it in Table I).
#pragma once

#include "baselines/namenode_base.hpp"

namespace mams::baselines {

class HdfsNameNode : public NameNodeBase {
 public:
  HdfsNameNode(net::Network& network, std::string name,
               storage::DiskParams disk = {})
      : NameNodeBase(network, std::move(name)), disk_(disk) {}

 protected:
  bool Serving() const override { return alive(); }

  void PersistBatch(journal::Batch batch) override {
    // Local sequential edit-log append; single disk arm.
    const auto bytes = static_cast<std::uint64_t>(batch.EncodedSize());
    const SimTime start = std::max(sim().Now(), disk_free_at_);
    disk_free_at_ = start + disk_.AppendCost(bytes);
    AfterLocal(disk_free_at_ - sim().Now(), [this, batch = std::move(batch)] {
      CompleteBatch(batch);
    });
  }

 private:
  storage::DiskModel disk_;
  SimTime disk_free_at_ = 0;
};

}  // namespace mams::baselines
