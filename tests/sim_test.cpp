// Tests for the discrete-event engine: ordering, cancellation, periodic
// timers, and the process crash/restart lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace mams::sim {
namespace {

TEST(EventQueueTest, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(10, [&] { order.push_back(2); });
  q.Schedule(5, [&] { order.push_back(0); });
  while (!q.empty()) {
    auto ev = q.Pop();
    ev.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.Schedule(1, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.Schedule(1, [] {});
  auto ev = q.Pop();
  ev.fn();
  EXPECT_FALSE(h.pending());
  h.Cancel();  // must not crash
}

TEST(EventQueueTest, DoubleCancelCountsOneTombstone) {
  EventQueue q;
  EventHandle h = q.Schedule(1, [] {});
  EventHandle copy = h;
  h.Cancel();
  copy.Cancel();  // second cancel through a copy: no double free-list push
  EXPECT_EQ(q.tombstones(), 1u);
  EXPECT_TRUE(q.empty());
  q.Schedule(2, [] {});
  q.Schedule(3, [] {});
  EXPECT_EQ(q.Pop().at, 2);
  EXPECT_EQ(q.Pop().at, 3);
}

TEST(EventQueueTest, CancellingTheFrontEntryExposesTheNext) {
  // NextTime() has already looked at the front when it is cancelled: the
  // next NextTime() and Pop() must skip the tombstone, not return it.
  EventQueue q;
  std::vector<int> order;
  EventHandle first = q.Schedule(5, [&] { order.push_back(0); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(10, [&] { order.push_back(2); });
  EXPECT_EQ(q.NextTime(), 5);
  first.Cancel();
  EXPECT_EQ(q.live(), 2u);
  EXPECT_EQ(q.NextTime(), 10);
  auto ev = q.Pop();
  EXPECT_EQ(ev.at, 10);
  ev.fn();
  EXPECT_EQ(q.tombstones(), 0u);
  EXPECT_EQ(q.entries(), 1u);
  q.Pop().fn();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, CancelledEntriesAreCompactedNotRetained) {
  // Cancelled entries must not sit in the heap until their deadline pops
  // them. Schedule far-future timers, cancel nearly all — the sweep must
  // reclaim them immediately (entries() shrinks and the closures were
  // already freed by Cancel), not at pop time.
  EventQueue q;
  std::vector<EventHandle> handles;
  handles.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    handles.push_back(q.Schedule(kSecond * (i + 1), [] {}));
  }
  for (int i = 0; i < 10'000; ++i) {
    if (i % 100 != 0) handles[i].Cancel();
  }
  // Compaction triggers on the next Schedule once tombstones outnumber
  // live entries.
  q.Schedule(1, [] {});
  EXPECT_GE(q.compactions(), 1u);
  EXPECT_LE(q.entries(), 200u);  // 100 survivors + the trigger + slack
  EXPECT_EQ(q.live(), 101u);
}

TEST(EventQueueTest, StressPopOrderMatchesReferenceUnderCancellation) {
  // 100k-event stress over immediate to far-future timestamps with
  // interleaved cancellations: pop order must be exactly
  // (timestamp, schedule seq) for every surviving event.
  constexpr int kEvents = 100'000;
  Rng rng(0xabcdef);
  EventQueue q;
  struct Expect {
    SimTime at;
    int id;
  };
  std::vector<Expect> expected;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  expected.reserve(kEvents);
  handles.reserve(kEvents);
  fired.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Mix of immediate (< 10 ms), near (< 1 s) and far (< 120 s) times.
    SimTime at = 0;
    switch (rng.Below(4)) {
      case 0:
        at = static_cast<SimTime>(rng.Below(10 * kMillisecond));
        break;
      case 1:
        at = static_cast<SimTime>(rng.Below(kSecond));
        break;
      default:
        at = static_cast<SimTime>(rng.Below(120 * kSecond));
        break;
    }
    handles.push_back(q.Schedule(at, [&fired, i] { fired.push_back(i); }));
    expected.push_back({at, i});
  }
  // Cancel ~40%, deterministically.
  std::vector<bool> cancelled(kEvents, false);
  for (int i = 0; i < kEvents; ++i) {
    if (rng.Below(10) < 4) {
      handles[i].Cancel();
      cancelled[i] = true;
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expect& a, const Expect& b) { return a.at < b.at; });

  SimTime prev = -1;
  while (!q.empty()) {
    const SimTime next = q.NextTime();
    auto ev = q.Pop();
    ASSERT_EQ(ev.at, next);
    ASSERT_GE(ev.at, prev) << "time went backwards";
    prev = ev.at;
    ev.fn();
  }
  std::vector<int> want;
  want.reserve(kEvents);
  for (const Expect& e : expected) {
    if (!cancelled[e.id]) want.push_back(e.id);
  }
  ASSERT_EQ(fired.size(), want.size());
  EXPECT_EQ(fired, want);
}

TEST(EventQueueTest, InterleavedScheduleAndPopKeepsOrder) {
  // Schedule-while-popping (the simulator's actual usage): events fire in
  // global (at, seq) order even when new events land mid-drain, including
  // ahead of entries that were queued earlier.
  EventQueue q;
  Rng rng(7);
  std::vector<SimTime> fired;
  int scheduled = 0;
  constexpr int kTotal = 20'000;
  auto spawn = [&](auto&& self, SimTime now) -> void {
    if (scheduled >= kTotal) return;
    ++scheduled;
    const SimTime at = now + static_cast<SimTime>(rng.Below(5 * kSecond));
    q.Schedule(at, [&, at] {
      fired.push_back(at);
      self(self, at);
      self(self, at);
    });
  };
  spawn(spawn, 0);
  while (!q.empty()) {
    auto ev = q.Pop();
    ev.fn();
  }
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(static_cast<int>(fired.size()), scheduled);
}

TEST(SmallFnTest, InlineAndHeapCallablesInvokeAndMove) {
  int calls = 0;
  SmallFn small([&calls] { ++calls; });  // fits inline
  SmallFn moved = std::move(small);
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(calls, 1);

  struct Big {
    char pad[96];
    int* counter;
  };
  Big big{};
  big.counter = &calls;
  SmallFn heap([big] { ++*big.counter; });  // exceeds kInlineBytes: heap path
  SmallFn heap2 = std::move(heap);
  heap2();
  EXPECT_EQ(calls, 2);
  heap2.Reset();
  EXPECT_FALSE(static_cast<bool>(heap2));
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.After(3 * kMillisecond, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, 3 * kMillisecond);
  EXPECT_EQ(sim.Now(), 3 * kMillisecond);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.After(1 * kSecond, [&] { ++fired; });
  sim.After(3 * kSecond, [&] { ++fired; });
  sim.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 2 * kSecond);
  sim.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampedToNow) {
  Simulator sim;
  sim.After(kSecond, [&] {
    sim.After(-5, [] {});  // must not move time backwards
  });
  sim.RunAll();
  EXPECT_EQ(sim.Now(), kSecond);
}

TEST(SimulatorTest, NestedSchedulingRunsInOrder) {
  Simulator sim;
  std::vector<std::string> log;
  sim.After(10, [&] {
    log.push_back("a");
    sim.After(5, [&] { log.push_back("c"); });
  });
  sim.After(12, [&] { log.push_back("b"); });
  sim.RunAll();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SimulatorTest, StepExecutesSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.After(1, [&] { ++fired; });
  sim.After(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTimerTest, FiresAtPeriodUntilStopped) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, kSecond, [&] { ++ticks; });
  timer.Start();
  sim.RunUntil(5 * kSecond + kMillisecond);
  EXPECT_EQ(ticks, 5);
  timer.Stop();
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTimerTest, CallbackMayStopTimer) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, kSecond, [&] {
    if (++ticks == 3) timer.Stop();
  });
  timer.Start();
  sim.RunAll();
  EXPECT_EQ(ticks, 3);
}

// --- Process lifecycle -------------------------------------------------------

class TestProcess : public Process {
 public:
  using Process::Process;
  int starts = 0, crashes = 0, restarts = 0;

 protected:
  void OnStart() override { ++starts; }
  void OnCrash() override { ++crashes; }
  void OnRestart() override { ++restarts; }
};

TEST(ProcessTest, BootCrashRestartLifecycle) {
  Simulator sim;
  TestProcess p(sim, "p");
  EXPECT_FALSE(p.alive());
  p.Boot();
  EXPECT_TRUE(p.alive());
  EXPECT_EQ(p.starts, 1);

  p.Crash();
  EXPECT_FALSE(p.alive());
  EXPECT_EQ(p.crashes, 1);

  p.Restart(2 * kSecond);
  EXPECT_FALSE(p.alive());
  sim.RunUntil(kSecond);
  EXPECT_FALSE(p.alive());
  sim.RunUntil(3 * kSecond);
  EXPECT_TRUE(p.alive());
  EXPECT_EQ(p.restarts, 1);
}

TEST(ProcessTest, CrashIsIdempotent) {
  Simulator sim;
  TestProcess p(sim, "p");
  p.Boot();
  p.Crash();
  p.Crash();
  EXPECT_EQ(p.crashes, 1);
}

TEST(ProcessTest, AfterLocalDiesWithProcess) {
  Simulator sim;
  TestProcess p(sim, "p");
  p.Boot();
  bool fired = false;
  p.AfterLocal(kSecond, [&] { fired = true; });
  p.Crash();
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(ProcessTest, AfterLocalFromOldIncarnationIgnoredAfterRestart) {
  Simulator sim;
  TestProcess p(sim, "p");
  p.Boot();
  bool fired = false;
  p.AfterLocal(3 * kSecond, [&] { fired = true; });
  sim.After(kSecond, [&] {
    p.Crash();
    p.Restart(500 * kMillisecond);
  });
  sim.RunAll();
  EXPECT_TRUE(p.alive());
  EXPECT_FALSE(fired);  // continuation belonged to the dead incarnation
}

TEST(ProcessTest, AfterLocalSurvivesWithinIncarnation) {
  Simulator sim;
  TestProcess p(sim, "p");
  p.Boot();
  bool fired = false;
  p.AfterLocal(kSecond, [&] { fired = true; });
  sim.RunAll();
  EXPECT_TRUE(fired);
}

TEST(ProcessTest, IncarnationIncrementsOnCrash) {
  Simulator sim;
  TestProcess p(sim, "p");
  p.Boot();
  const auto inc0 = p.incarnation();
  p.Crash();
  EXPECT_EQ(p.incarnation(), inc0 + 1);
}

}  // namespace
}  // namespace mams::sim
