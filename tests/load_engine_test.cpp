// Load-engine coverage: key-distribution statistical sanity, arrival
// curves vs their closed-form rate integrals, and a 1k-session open-loop
// cluster smoke proving the whole stack drains and is deterministic.
// The smoke doubles as the PR-gate scale check (the full 1k/10k/100k
// sweep lives in bench/micro_scale).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/keydist.hpp"
#include "workload/load_engine.hpp"

namespace mams {
namespace {

using workload::ArrivalCurve;
using workload::ArrivalKind;
using workload::ArrivalSampler;
using workload::KeyDistSpec;
using workload::KeyPicker;
using workload::LoadEngine;

// --- key distributions ----------------------------------------------------

TEST(KeyPickerTest, ZipfIsSkewedTowardLowRanks) {
  const std::uint32_t n = 64;
  KeyPicker picker(KeyDistSpec::Zipf(0.99), n);
  Rng rng(0x217f);
  std::vector<int> counts(n, 0);
  const int samples = 100'000;
  for (int i = 0; i < samples; ++i) ++counts[picker.Sample(rng)];
  // Rank popularity must decrease (allowing sampling noise between
  // neighbours, the head must clearly dominate the tail).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  EXPECT_GT(counts[0], 8 * counts[n - 1]);
  // Exact CDF check on the head: P(rank 0) = 1 / H(n, theta).
  double h = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    h += 1.0 / std::pow(static_cast<double>(k + 1), 0.99);
  }
  const double expected0 = static_cast<double>(samples) / h;
  EXPECT_NEAR(counts[0], expected0, expected0 * 0.1);
}

TEST(KeyPickerTest, SamplingIsDeterministicForFixedSeed) {
  const KeyDistSpec spec = KeyDistSpec::Zipf(0.99);
  KeyPicker a(spec, 64), b(spec, 64);
  Rng ra(42), rb(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Sample(ra), b.Sample(rb)) << "draw " << i;
  }
}

// --- arrival curves -------------------------------------------------------

// Counts sampler arrivals inside [0, window) and compares against the
// curve's closed-form rate integral. Poisson sd is sqrt(N); the 10%
// tolerance is many sigma at these counts.
void ExpectIntegralMatch(const ArrivalCurve& curve, double window_s,
                         std::uint64_t seed) {
  ArrivalSampler sampler(curve, Rng(seed));
  const SimTime window = static_cast<SimTime>(window_s * kSecond);
  SimTime t = 0;
  std::uint64_t arrivals = 0;
  for (;;) {
    const SimTime next = sampler.Next(t);
    ASSERT_GT(next, t) << "arrivals must strictly advance";
    if (next >= window) break;
    t = next;
    ++arrivals;
  }
  const double expected = curve.Integral(0.0, window_s);
  EXPECT_NEAR(static_cast<double>(arrivals), expected, expected * 0.10)
      << workload::ArrivalKindName(curve.kind);
}

TEST(ArrivalSamplerTest, ConstantMatchesRateIntegral) {
  ExpectIntegralMatch(ArrivalCurve::Constant(500.0), 20.0, 11);
}

TEST(ArrivalSamplerTest, DiurnalMatchesRateIntegral) {
  // Two full periods: the sine terms cancel and the integral is
  // mid-rate·window = 500·0.6·20 = 6000.
  const ArrivalCurve curve = ArrivalCurve::Diurnal(500.0, 10.0, 0.2);
  EXPECT_NEAR(curve.Integral(0.0, 20.0), 6000.0, 1e-6);
  ExpectIntegralMatch(curve, 20.0, 13);
}

TEST(ArrivalSamplerTest, FlashCrowdMatchesRateIntegral) {
  // base·20 + base·(mult-1)·burst = 200·20 + 200·9·2 = 7600.
  const ArrivalCurve curve = ArrivalCurve::FlashCrowd(200.0, 5.0, 2.0, 10.0);
  EXPECT_NEAR(curve.Integral(0.0, 20.0), 7600.0, 1e-6);
  ExpectIntegralMatch(curve, 20.0, 17);
}

TEST(ArrivalSamplerTest, FlashCrowdBurstWindowIsDenser) {
  ArrivalSampler sampler(ArrivalCurve::FlashCrowd(200.0, 5.0, 2.0, 10.0),
                         Rng(19));
  SimTime t = 0;
  std::uint64_t in_burst = 0, outside = 0;
  for (;;) {
    t = sampler.Next(t);
    const double s = ToSeconds(t);
    if (s >= 20.0) break;
    if (s >= 5.0 && s < 7.0) {
      ++in_burst;
    } else {
      ++outside;
    }
  }
  // 2 s of burst at 10x base carries ~4000 arrivals vs ~3600 over the
  // other 18 s — per-second density inside the burst is ~10x outside.
  const double burst_rate = static_cast<double>(in_burst) / 2.0;
  const double outside_rate = static_cast<double>(outside) / 18.0;
  EXPECT_GT(burst_rate, 6.0 * outside_rate);
}

TEST(ArrivalSamplerTest, ScheduleIsDeterministicForFixedSeed) {
  const ArrivalCurve curve = ArrivalCurve::Diurnal(300.0, 8.0);
  ArrivalSampler a(curve, Rng(7)), b(curve, Rng(7));
  SimTime ta = 0, tb = 0;
  for (int i = 0; i < 500; ++i) {
    ta = a.Next(ta);
    tb = b.Next(tb);
    ASSERT_EQ(ta, tb) << "arrival " << i;
  }
}

// --- open-loop cluster smoke ---------------------------------------------

struct SmokeResult {
  std::uint64_t finished = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool drained = false;
  std::uint64_t digest = 0;
};

SmokeResult RunOpenLoopSmoke(std::uint64_t sessions, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  constexpr int kDirs = 16;
  constexpr std::uint32_t kFilesPerDir = 8;
  cfs.PreloadGroup(0, [&](fsns::Tree& tree) {
    for (int d = 0; d < kDirs; ++d) {
      for (std::uint32_t f = 0; f < kFilesPerDir; ++f) {
        ClientOpId none{};
        (void)tree.Create("/bench/d" + std::to_string(d) + "/f" +
                              std::to_string(f),
                          3, 0, none);
      }
    }
  });

  workload::Mix mix;
  mix.getfileinfo = 0.9;
  mix.create = 0.1;
  LoadEngine::Options opt;
  opt.loop = LoadEngine::Loop::kOpen;
  opt.max_sessions = sessions;
  opt.ops_per_session = 4;
  opt.directories = kDirs;
  opt.files_per_dir = kFilesPerDir;
  opt.arrival = ArrivalCurve::Constant(static_cast<double>(sessions) / 2.0);
  opt.keys = KeyDistSpec::Zipf(0.99);

  std::vector<workload::ClientApi> apis;
  for (int c = 0; c < cfs.client_count(); ++c) {
    apis.push_back(workload::MakeApi(cfs.client(c)));
  }
  LoadEngine engine(sim, std::move(apis), mix, seed, opt);

  const SimTime cap = sim.Now() + 120 * kSecond;
  engine.Start();
  while (!engine.drained() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  engine.Stop();

  SmokeResult r;
  r.finished = engine.sessions_finished();
  r.completed = engine.completed();
  r.failed = engine.failed();
  r.drained = engine.drained();
  r.digest = sim.run_digest();
  return r;
}

TEST(LoadEngineSmokeTest, ThousandOpenLoopSessionsDrain) {
  const SmokeResult r = RunOpenLoopSmoke(1000, 42);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.finished, 1000u);
  // Every session runs its full 4-op program; every op is answered by a
  // healthy cluster (AlreadyExists/NotFound still count as served).
  EXPECT_EQ(r.completed, 4000u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(LoadEngineSmokeTest, FixedSeedGivesIdenticalRunDigest) {
  const SmokeResult a = RunOpenLoopSmoke(1000, 42);
  const SmokeResult b = RunOpenLoopSmoke(1000, 42);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.completed, b.completed);
  const SmokeResult c = RunOpenLoopSmoke(1000, 43);
  EXPECT_NE(a.digest, c.digest) << "different seeds should diverge";
}

TEST(LoadEngineSmokeTest, MaxSessionsCapsAdmission) {
  const SmokeResult r = RunOpenLoopSmoke(250, 7);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.finished, 250u);
}

}  // namespace
}  // namespace mams
