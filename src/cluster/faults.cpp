#include "cluster/faults.hpp"

#include "cluster/cfs.hpp"

namespace mams::cluster {

core::MdsServer* Faults::CrashActive(GroupId g,
                                     std::optional<SimTime> restart_after) {
  core::MdsServer* active = cfs_.FindActive(g);
  if (active != nullptr) Crash(*active, restart_after);
  return active;
}

void Faults::ForceLockRelease(GroupId g) {
  cfs_.coord().frontend().AdminForceReleaseLock(g);
}

void Faults::Heal() {
  for (const auto& entry : cut_epoch_) Replug(entry.first);
  while (!halves_cut_.empty()) RestoreHalves(*halves_cut_.begin());
  ++jitter_epoch_;
  net_.set_extra_jitter(0);
  for (storage::PoolNode* node : slowed_) node->SetDiskSlowdown(1.0);
  slowed_.clear();
  for (GroupId g = 0; g < cfs_.config().groups; ++g) {
    for (const auto& member : cfs_.Members(g)) Restart(*member.server);
  }
  for (int p = 0; p < cfs_.pool_node_count(); ++p) Restart(cfs_.pool_node(p));
}

}  // namespace mams::cluster
