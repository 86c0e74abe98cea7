#include "cluster/autoscaler.hpp"

#include <algorithm>
#include <string>

namespace mams::cluster {

namespace {

// Counter deltas survive member restarts: a rejoining node resets its
// local counters, which would make the naive delta go "backwards". Clamp
// to the current value in that case (we under-count one tick, never over).
std::uint64_t Delta(std::uint64_t cur, std::uint64_t prev) {
  return cur >= prev ? cur - prev : cur;
}

}  // namespace

Autoscaler::Autoscaler(CfsCluster& cfs, AutoscalerOptions options)
    : cfs_(cfs), options_(options), sim_(cfs.network().sim()) {
  auto& metrics = sim_.obs().metrics();
  groups_.resize(cfs_.config().groups);
  for (GroupId g = 0; g < cfs_.config().groups; ++g) {
    const std::string base = "autoscaler.g" + std::to_string(g);
    groups_[g].scale_ups = metrics.counter(base + ".scale_ups");
    groups_[g].scale_downs = metrics.counter(base + ".scale_downs");
    groups_[g].util_gauge = metrics.gauge(base + ".utilization");
    groups_[g].standby_gauge = metrics.gauge(base + ".standbys");
  }
}

Autoscaler::~Autoscaler() { *alive_ = false; }

void Autoscaler::Start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  Schedule();
}

void Autoscaler::Stop() {
  running_ = false;
  ++epoch_;
}

void Autoscaler::Schedule() {
  const std::uint64_t epoch = epoch_;
  sim_.After(options_.evaluate_period, [this, alive = alive_, epoch] {
    if (!*alive || !running_ || epoch_ != epoch) return;
    Evaluate();
    Schedule();
  });
}

void Autoscaler::Evaluate() {
  ++stats_.ticks;
  for (GroupId g = 0; g < static_cast<GroupId>(groups_.size()); ++g) {
    EvaluateGroup(g);
  }
}

void Autoscaler::EvaluateGroup(GroupId g) {
  GroupState& gs = groups_[g];
  const auto members = cfs_.Members(g);

  // Roll the counter baseline every tick, even on skipped ones — otherwise
  // a skip would fold several periods of traffic into the next delta and
  // fake a rate spike right when the group settles.
  std::uint64_t reads = 0, parked = 0, bounced = 0;
  int standbys = 0, juniors = 0;
  for (const auto& m : members) {
    const auto& c = m.server->counters();
    reads += c.reads + c.standby_reads_served;
    parked += c.standby_reads_parked;
    bounced += c.standby_reads_bounced;
    if (m.role == ServerState::kStandby) ++standbys;
    if (m.role == ServerState::kJunior) ++juniors;
  }
  const std::uint64_t d_reads = Delta(reads, gs.prev_reads);
  const std::uint64_t d_parked = Delta(parked, gs.prev_parked);
  const std::uint64_t d_bounced = Delta(bounced, gs.prev_bounced);
  const bool primed = gs.primed;
  gs.prev_reads = reads;
  gs.prev_parked = parked;
  gs.prev_bounced = bounced;
  gs.primed = true;
  gs.standby_gauge->Set(static_cast<double>(standbys));

  // A previously admitted member that reached standby (or died trying)
  // clears the join-in-flight latch.
  if (gs.pending_join != kInvalidNode) {
    for (const auto& m : members) {
      if (m.id != gs.pending_join) continue;
      if (m.role == ServerState::kStandby || m.role == ServerState::kDown) {
        gs.pending_join = kInvalidNode;
      }
      break;
    }
  }

  // No elasticity while the view has no settled active: scale decisions
  // during a failover would race the election and the renew protocol.
  core::MdsServer* active = cfs_.FindActive(g);
  if (active == nullptr) {
    ++stats_.skipped_no_active;
    gs.up_breach = 0;
    gs.down_breach = 0;
    return;
  }
  if (!primed) return;  // first tick: baseline only

  const double secs = static_cast<double>(options_.evaluate_period) /
                      static_cast<double>(kSecond);
  const double read_rate = static_cast<double>(d_reads) / secs;
  const double pb_rate = static_cast<double>(d_parked + d_bounced) / secs;
  const int serving = std::max(standbys, 1);
  gs.utilization = read_rate / (static_cast<double>(serving) *
                                options_.reads_per_standby_capacity);
  gs.util_gauge->Set(gs.utilization);

  const bool pressure_up = gs.utilization > options_.scale_up_utilization ||
                           pb_rate > options_.park_bounce_rate_up;
  const bool pressure_down =
      gs.utilization < options_.scale_down_utilization && pb_rate == 0.0;
  gs.up_breach = pressure_up ? gs.up_breach + 1 : 0;
  gs.down_breach = pressure_down ? gs.down_breach + 1 : 0;

  const bool wants_up =
      gs.up_breach >= options_.breach_ticks && standbys < options_.max_standbys;
  const bool wants_down = gs.down_breach >= options_.breach_ticks &&
                          standbys > options_.min_standbys;
  if (!wants_up && !wants_down) return;

  if (gs.acted_once && sim_.Now() - gs.last_action < options_.cooldown) {
    ++stats_.skipped_cooldown;
    return;
  }

  if (wants_up) {
    if (gs.pending_join != kInvalidNode) {
      // One admission at a time: the junior already syncing is the
      // capacity we asked for — piling on more would overshoot.
      ++stats_.skipped_join_pending;
      return;
    }
    if (juniors > 0) {
      // Cheapest capacity first: a junior is already a member, it only
      // needs renewing.
      if (!cfs_.PromoteJunior(g).ok()) return;
    } else {
      gs.pending_join = cfs_.AddStandby(g).id();
    }
    gs.scale_ups->Add();
    ++stats_.scale_ups;
    gs.last_action = sim_.Now();
    gs.acted_once = true;
    gs.up_breach = 0;
    sim_.obs().tracer().Instant("autoscaler", "scale_up", kInvalidNode, g);
    return;
  }

  // Scale down: only a drained standby, never below the floor.
  if (cfs_.PickDemotable(g) == nullptr) {
    ++stats_.skipped_not_drained;
    return;
  }
  if (!cfs_.RemoveStandby(g).ok()) {
    ++stats_.skipped_not_drained;
    return;
  }
  gs.scale_downs->Add();
  ++stats_.scale_downs;
  gs.last_action = sim_.Now();
  gs.acted_once = true;
  gs.down_breach = 0;
  sim_.obs().tracer().Instant("autoscaler", "scale_down", kInvalidNode, g);
}

}  // namespace mams::cluster
