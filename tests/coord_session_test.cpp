// Tests for session-expiry semantics: the request/response heartbeat path
// and the session-lost handler (ZooKeeper's SESSION_EXPIRED analogue),
// plus replicated-state-machine convergence across the coordination
// ensemble.
#include <gtest/gtest.h>

#include <memory>

#include "coord/client.hpp"
#include "coord/service.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mams::coord {
namespace {

class SessionHost : public net::Host {
 public:
  SessionHost(net::Network& net, std::string name, NodeId coord)
      : net::Host(net, std::move(name)) {
    client_ = std::make_unique<CoordClient>(*this, coord);
    client_->SetWatchHandler([](const GroupView&) {});
    client_->SetSessionLostHandler([this] { ++session_lost_events; });
  }
  CoordClient& client() { return *client_; }
  int session_lost_events = 0;

 protected:
  void OnCrash() override {
    net::Host::OnCrash();
    client_->Stop();
  }

 private:
  std::unique_ptr<CoordClient> client_;
};

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : sim_(61), net_(sim_) {
    ensemble_ = std::make_unique<CoordEnsemble>(net_, 3);
    host_ = std::make_unique<SessionHost>(net_, "member",
                                          ensemble_->frontend_id());
    host_->Boot();
    bool done = false;
    host_->client().Register(0, ServerState::kStandby,
                             [&](Result<GroupView> r) {
                               ASSERT_TRUE(r.ok());
                               done = true;
                             });
    sim_.RunUntil(sim_.Now() + kSecond);
    EXPECT_TRUE(done);
  }

  void Run(SimTime dt) { sim_.RunUntil(sim_.Now() + dt); }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<CoordEnsemble> ensemble_;
  std::unique_ptr<SessionHost> host_;
};

TEST_F(SessionTest, HealthySessionNeverFiresLostHandler) {
  Run(30 * kSecond);
  EXPECT_EQ(host_->session_lost_events, 0);
  EXPECT_TRUE(host_->client().registered());
  EXPECT_EQ(ensemble_->frontend().session_count(), 1u);
}

TEST_F(SessionTest, PartitionPastTimeoutFiresLostHandlerOnHeal) {
  net_.Partition(host_->id(), ensemble_->frontend_id());
  Run(8 * kSecond);  // session expires server-side
  EXPECT_EQ(ensemble_->frontend().session_count(), 0u);
  EXPECT_EQ(host_->session_lost_events, 0);  // cannot know yet

  net_.Heal(host_->id(), ensemble_->frontend_id());
  Run(5 * kSecond);  // next heartbeat reveals the expiry
  EXPECT_EQ(host_->session_lost_events, 1);
  EXPECT_FALSE(host_->client().registered());  // heartbeats stopped
}

TEST_F(SessionTest, ShortPartitionKeepsSessionAlive) {
  net_.Partition(host_->id(), ensemble_->frontend_id());
  Run(2 * kSecond);  // shorter than the 5 s timeout
  net_.Heal(host_->id(), ensemble_->frontend_id());
  Run(10 * kSecond);
  EXPECT_EQ(host_->session_lost_events, 0);
  EXPECT_TRUE(host_->client().registered());
}

TEST_F(SessionTest, RetriedRegisterAfterLostReplyGetsALiveSession) {
  // Every register attempt reaches the service for 8 s, but every reply is
  // lost — longer than kSessionTimeout, so the session the first attempt
  // opened expires unheard. Each retry re-runs the registration, which
  // replaces the member's session, and the session the member finally
  // hears about is live.
  SessionHost late(net_, "late", ensemble_->frontend_id());
  late.Boot();
  net_.SetRecvUp(late.id(), false);
  bool ok = false;
  late.client().Register(0, ServerState::kStandby,
                         [&](Result<GroupView> r) { ok = r.ok(); });
  Run(8 * kSecond);
  EXPECT_FALSE(ok);
  net_.SetRecvUp(late.id(), true);
  Run(10 * kSecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(late.session_lost_events, 0);
  EXPECT_TRUE(late.client().registered());
}

TEST_F(SessionTest, AdminExpireFiresLostHandler) {
  ensemble_->frontend().AdminExpireNode(host_->id());
  Run(6 * kSecond);  // next heartbeat answers "expired"
  EXPECT_EQ(host_->session_lost_events, 1);
}

TEST_F(SessionTest, AdminExpireKeepsTheSessionMetricsCurrent) {
  // An admin expiry ends the session as the heartbeat scan does: the
  // gauge follows the live count and the expiry is counted.
  auto& metrics = sim_.obs().metrics();
  CoordService& service = ensemble_->frontend();
  ASSERT_EQ(service.session_count(), 1u);
  service.AdminExpireNode(host_->id());
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_EQ(metrics.gauge("coord.sessions")->value,
            static_cast<std::int64_t>(service.session_count()));
  EXPECT_EQ(metrics.counter("coord.sessions_expired")->value, 1u);
}

TEST_F(SessionTest, BackendReplicasConvergeOnViewState) {
  // Drive a few view mutations, then check the Paxos log length is equal
  // across the ensemble (the RSM applied the same command stream).
  host_->client().SetState(0, host_->id(), ServerState::kJunior, 0,
                           [](Result<GroupView>) {});
  Run(kSecond);
  host_->client().SetState(0, host_->id(), ServerState::kStandby, 0,
                           [](Result<GroupView>) {});
  Run(kSecond);
  const auto chosen = ensemble_->frontend().chosen_count();
  EXPECT_GT(chosen, 0u);
  for (const auto& backend : ensemble_->backends()) {
    EXPECT_EQ(backend->chosen_count(), chosen);
    EXPECT_EQ(backend->applied_through(),
              ensemble_->frontend().applied_through());
  }
}

}  // namespace
}  // namespace mams::coord
