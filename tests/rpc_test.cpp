// Tests for the unified RPC policy layer (net/rpc.hpp) over Host: deadline
// expiry, deterministic backoff schedules, retry-until-success across a
// healed partition, re-execution under retried delivery, and
// crash-forgets-pending semantics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/message_types.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "sim/simulator.hpp"

namespace mams::net {
namespace {

struct PingMsg final : Message {
  int value = 0;
  MsgType type() const noexcept override { return kTestPing; }
};

struct PongMsg final : Message {
  int value = 0;
  MsgType type() const noexcept override { return kTestPong; }
};

/// Server with controllable behaviour: optional reply delay (models a slow
/// handler), optional swallowing (handler runs but never replies), and a
/// request log for arrival-time assertions.
class LabHost : public Host {
 public:
  LabHost(Network& net, std::string name) : Host(net, std::move(name)) {
    OnRequest(kTestPing, [this](const Envelope&, const MessagePtr& msg,
                                const ReplyFn& reply) {
      ++handled;
      arrivals.push_back(sim().Now());
      if (swallow) return;
      auto pong = std::make_shared<PongMsg>();
      pong->value = reply_value >= 0 ? reply_value++ : Cast<PingMsg>(msg).value;
      if (reply_delay > 0) {
        AfterLocal(reply_delay, [reply, pong] { reply(pong); });
      } else {
        reply(pong);
      }
    });
  }

  int handled = 0;
  bool swallow = false;
  SimTime reply_delay = 0;
  int reply_value = -1;  ///< >= 0: reply this, then increment (readiness seq)
  std::vector<SimTime> arrivals;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : sim_(42),
        net_(sim_, ZeroJitter()),
        client_(net_, "client"),
        server_(net_, "server") {
    client_.Boot();
    server_.Boot();
  }

  static LinkParams ZeroJitter() {
    LinkParams p;
    p.jitter = 0;  // exact arrival times for schedule assertions
    return p;
  }

  std::uint64_t Metric(const char* name) {
    return sim_.obs().metrics().counter(name)->value;
  }

  sim::Simulator sim_;
  Network net_;
  LabHost client_;
  LabHost server_;
};

TEST_F(RpcTest, RetryUntilSuccessAcrossHealedPartition) {
  net_.Partition(client_.id(), server_.id());
  sim_.After(kSecond, [this] { net_.Heal(client_.id(), server_.id()); });

  RpcPolicy policy;
  policy.attempt_timeout = 200 * kMillisecond;
  policy.max_attempts = 20;
  policy.backoff_base = 100 * kMillisecond;
  policy.backoff_multiplier = 1.0;

  bool ok = false;
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr> r) { ok = r.ok(); });
  sim_.RunAll();
  EXPECT_TRUE(ok);
  // Retries crossed the dead window; the handler ran exactly once (the
  // attempts before the heal never arrived).
  EXPECT_EQ(server_.handled, 1);
  EXPECT_GT(Metric("net.rpc.retries"), 0u);
  EXPECT_GT(Metric("net.rpc.timeouts"), 0u);
}

TEST_F(RpcTest, BackoffScheduleIsDeterministic) {
  server_.swallow = true;

  RpcPolicy policy;
  policy.attempt_timeout = 100 * kMillisecond;
  policy.max_attempts = 5;
  policy.backoff_base = 50 * kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap = 400 * kMillisecond;
  policy.jitter = 0.0;

  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [](Result<MessagePtr>) {});
  sim_.RunAll();
  ASSERT_EQ(server_.arrivals.size(), 5u);
  // With zero link jitter, consecutive arrivals differ by exactly
  // attempt_timeout + backoff: 50, 100, 200, 400 (the doubling schedule).
  const SimTime t = policy.attempt_timeout;
  EXPECT_EQ(server_.arrivals[1] - server_.arrivals[0], t + 50 * kMillisecond);
  EXPECT_EQ(server_.arrivals[2] - server_.arrivals[1], t + 100 * kMillisecond);
  EXPECT_EQ(server_.arrivals[3] - server_.arrivals[2], t + 200 * kMillisecond);
  EXPECT_EQ(server_.arrivals[4] - server_.arrivals[3], t + 400 * kMillisecond);
}

TEST_F(RpcTest, JitterStaysWithinBound) {
  server_.swallow = true;

  RpcPolicy policy;
  policy.attempt_timeout = 100 * kMillisecond;
  policy.max_attempts = 8;
  policy.backoff_base = 50 * kMillisecond;
  policy.backoff_multiplier = 1.0;
  policy.jitter = 1.0;  // delay in [50, 100) ms

  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [](Result<MessagePtr>) {});
  sim_.RunAll();
  ASSERT_EQ(server_.arrivals.size(), 8u);
  for (std::size_t i = 1; i < server_.arrivals.size(); ++i) {
    const SimTime gap = server_.arrivals[i] - server_.arrivals[i - 1];
    EXPECT_GE(gap, policy.attempt_timeout + 50 * kMillisecond);
    EXPECT_LT(gap, policy.attempt_timeout + 100 * kMillisecond);
  }
}

TEST_F(RpcTest, SlowHandlerRunsAgainForRetriedDelivery) {
  // The first run of the handler takes 300 ms but the client times out
  // after 200 ms and retries immediately; by then the server has caught up
  // and answers at once. The transport keeps no record of the first
  // attempt, so the retry runs the handler a second time — the retried
  // call's own protocol is what makes that safe.
  server_.reply_delay = 300 * kMillisecond;
  sim_.After(100 * kMillisecond, [this] { server_.reply_delay = 0; });

  RpcPolicy policy;
  policy.attempt_timeout = 200 * kMillisecond;
  policy.max_attempts = 5;
  policy.backoff_base = 0;
  policy.backoff_cap = 0;

  bool ok = false;
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr> r) { ok = r.ok(); });
  sim_.RunAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(server_.handled, 2);
  // The first attempt's answer arrives after its rpc timed out — dropped
  // and counted at the client.
  EXPECT_EQ(Metric("net.rpc.late_responses"), 1u);
}

TEST_F(RpcTest, CrashForgetsPendingRetries) {
  server_.swallow = true;

  RpcPolicy policy;
  policy.attempt_timeout = 200 * kMillisecond;
  policy.max_attempts = 0;  // would retry forever
  policy.backoff_base = 100 * kMillisecond;
  policy.backoff_multiplier = 1.0;

  bool fired = false;
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr>) { fired = true; });
  sim_.RunUntil(500 * kMillisecond);
  const int seen_before_crash = server_.handled;
  EXPECT_GT(seen_before_crash, 0);
  client_.Crash();
  sim_.RunUntil(10 * kSecond);
  sim_.RunAll();
  // The dead incarnation's callback never fires and its retry chain dies
  // with it: no further requests reach the server.
  EXPECT_FALSE(fired);
  EXPECT_EQ(server_.handled, seen_before_crash);
}

TEST_F(RpcTest, RetryResponsePredicatePollsUntilReady) {
  // The server answers with 0, 1, 2, ...; the caller treats < 3 as "not
  // ready yet". Each poll is a genuine re-execution.
  server_.reply_value = 0;

  RpcPolicy policy;
  policy.attempt_timeout = kSecond;
  policy.max_attempts = 10;
  policy.backoff_base = 10 * kMillisecond;
  policy.backoff_multiplier = 1.0;

  RpcHooks hooks;
  hooks.retry_response = [](const MessagePtr& msg) {
    return Cast<PongMsg>(msg).value < 3;
  };
  int final_value = -1;
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr> r) {
                   ASSERT_TRUE(r.ok());
                   final_value = Cast<PongMsg>(r.value()).value;
                 },
                 std::move(hooks));
  sim_.RunAll();
  EXPECT_EQ(final_value, 3);
  EXPECT_EQ(server_.handled, 4);
}

TEST_F(RpcTest, ExhaustionDeliversLastRetryableResponse) {
  server_.reply_value = 0;

  RpcPolicy policy;
  policy.attempt_timeout = kSecond;
  policy.max_attempts = 2;
  policy.backoff_base = 0;
  policy.backoff_cap = 0;

  RpcHooks hooks;
  hooks.retry_response = [](const MessagePtr&) { return true; };  // never ready
  Result<MessagePtr> out = Status::Internal("callback never ran");
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr> r) { out = std::move(r); },
                 std::move(hooks));
  sim_.RunAll();
  // The caller gets the final (retryable) response so its error detail
  // survives, rather than a generic failure status.
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Cast<PongMsg>(out.value()).value, 1);
}

TEST_F(RpcTest, TargetHookFailsOverAcrossReplicas) {
  LabHost backup(net_, "backup");
  backup.Boot();
  net_.SetLinkUp(server_.id(), false);  // primary unplugged

  RpcPolicy policy;
  policy.attempt_timeout = 100 * kMillisecond;
  policy.max_attempts = 2;
  policy.backoff_base = 0;
  policy.backoff_cap = 0;

  RpcHooks hooks;
  std::vector<NodeId> targets{server_.id(), backup.id()};
  hooks.target = [targets](int attempt) { return targets[attempt - 1]; };
  bool ok = false;
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr> r) { ok = r.ok(); },
                 std::move(hooks));
  sim_.RunAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(server_.handled, 0);
  EXPECT_EQ(backup.handled, 1);
}

TEST_F(RpcTest, CancelHookAbortsBetweenAttempts) {
  server_.swallow = true;

  RpcPolicy policy;
  policy.attempt_timeout = 100 * kMillisecond;
  policy.max_attempts = 0;
  policy.backoff_base = 50 * kMillisecond;
  policy.backoff_multiplier = 1.0;

  bool cancelled = false;
  RpcHooks hooks;
  hooks.cancelled = [&] { return cancelled; };
  Status status = Status::Ok();
  RpcCall::Start(client_, server_.id(), std::make_shared<PingMsg>(), policy,
                 [&](Result<MessagePtr> r) { status = r.status(); },
                 std::move(hooks));
  sim_.After(kSecond, [&] { cancelled = true; });
  sim_.RunAll();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace mams::net
