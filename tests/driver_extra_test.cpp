// Additional workload-layer coverage: client ListDir/SetReplication API,
// availability metrics against a real failover timeline, and the MTTR
// probe across every baseline system (a miniature Table I sanity sweep).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/systems.hpp"
#include "cluster/cfs.hpp"
#include "metrics/availability.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/load_engine.hpp"

namespace mams {
namespace {

TEST(ClientApiTest, ListDirAndSetReplication) {
  sim::Simulator sim(71);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  auto& client = cfs.client(0);
  int pending = 3;
  for (const char* name : {"a", "b", "c"}) {
    client.Create(std::string("/dir/") + name, [&](Status s) {
      ASSERT_TRUE(s.ok());
      --pending;
    });
  }
  while (pending > 0) sim.RunUntil(sim.Now() + 100 * kMillisecond);

  std::vector<std::string> names;
  client.ListDir("/dir", [&](Result<std::vector<std::string>> r) {
    ASSERT_TRUE(r.ok());
    names = std::move(r).value();
  });
  sim.RunUntil(sim.Now() + kSecond);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));

  bool ok = false;
  client.SetReplication("/dir/a", 5, [&](Status s) { ok = s.ok(); });
  sim.RunUntil(sim.Now() + kSecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(cfs.FindActive(0)->tree().GetFileInfo("/dir/a").value().replication,
            5u);
}

TEST(AvailabilityIntegrationTest, FailoverShowsAsOneShortOutage) {
  sim::Simulator sim(73);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::LoadEngine::Options opts;
  opts.loop = workload::LoadEngine::Loop::kClosed;
  opts.sessions = 4;
  workload::LoadEngine driver(sim, workload::MakeApi(cfs.client(0)),
                              workload::Mix::Only(workload::OpKind::kCreate),
                              9, opts);
  driver.Start();
  sim.RunUntil(sim.Now() + 20 * kSecond);
  cfs.FindActive(0)->Crash();
  sim.RunUntil(sim.Now() + 40 * kSecond);
  driver.Stop();

  // One main outage (the failover window); a boundary bucket straddling
  // the recovery instant may register as a short second blip.
  auto outages = metrics::FindOutages(driver.rate());
  ASSERT_GE(outages.size(), 1u);
  std::size_t total = 0, longest = 0;
  for (const auto& o : outages) {
    total += o.Length();
    longest = std::max(longest, o.Length());
  }
  // Failover: ~5 s session timeout + election + switch + reconnect.
  EXPECT_GE(longest, 4u);
  EXPECT_LE(total, 12u);
  EXPECT_GT(metrics::Availability(driver.rate()), 0.8);
}

// Mini Table I: every HA system recovers; recovery-time ordering matches
// the paper (MAMS < HA < Avatar at small scale; BackupNode in between
// depending on block count).
TEST(MttrOrderingTest, SmallScaleOrderingMatchesPaper) {
  auto mams = [] {
    sim::Simulator sim(81);
    net::Network net(sim);
    cluster::CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 3;
    cfg.clients = 1;
    cfg.data_servers = 1;
    cfg.client.max_attempts = 1;
    cfg.client.rpc_timeout = kSecond;
    cluster::CfsCluster cfs(net, cfg);
    cfs.Start();
    sim.RunUntil(sim.Now() + kSecond);
    workload::LoadEngine::Options load;
    load.loop = workload::LoadEngine::Loop::kClosed;
    load.sessions = 2;
    workload::LoadEngine driver(sim, workload::MakeApi(cfs.client(0)),
                                workload::Mix::Only(workload::OpKind::kCreate),
                                5, load);
    driver.Start();
    sim.RunUntil(sim.Now() + 2 * kSecond);
    cfs.FindActive(0)->Crash();
    while (!driver.mttr_probe().complete() && sim.Now() < 300 * kSecond) {
      sim.RunUntil(sim.Now() + 250 * kMillisecond);
    }
    return ToSeconds(driver.mttr_probe().mttr());
  }();

  auto ha = [] {
    sim::Simulator sim(82);
    net::Network net(sim);
    baselines::SharedEditsSystem::Options opts;
    opts.clients = 1;
    opts.client.max_attempts = 1;
    opts.client.rpc_timeout = kSecond;
    baselines::SharedEditsSystem sys(net, baselines::kHadoopHa, opts);
    sim.RunUntil(sim.Now() + kSecond);
    workload::LoadEngine::Options load;
    load.loop = workload::LoadEngine::Loop::kClosed;
    load.sessions = 2;
    workload::LoadEngine driver(sim, workload::MakeApi(sys.client(0)),
                                workload::Mix::Only(workload::OpKind::kCreate),
                                5, load);
    driver.Start();
    sim.RunUntil(sim.Now() + 2 * kSecond);
    sys.KillPrimary();
    while (!driver.mttr_probe().complete() && sim.Now() < 300 * kSecond) {
      sim.RunUntil(sim.Now() + 250 * kMillisecond);
    }
    return ToSeconds(driver.mttr_probe().mttr());
  }();

  auto avatar = [] {
    sim::Simulator sim(83);
    net::Network net(sim);
    baselines::SharedEditsSystem::Options opts;
    opts.clients = 1;
    opts.client.max_attempts = 1;
    opts.client.rpc_timeout = kSecond;
    baselines::SharedEditsSystem sys(net, baselines::kAvatar, opts);
    sim.RunUntil(sim.Now() + kSecond);
    workload::LoadEngine::Options load;
    load.loop = workload::LoadEngine::Loop::kClosed;
    load.sessions = 2;
    workload::LoadEngine driver(sim, workload::MakeApi(sys.client(0)),
                                workload::Mix::Only(workload::OpKind::kCreate),
                                5, load);
    driver.Start();
    sim.RunUntil(sim.Now() + 2 * kSecond);
    sys.KillPrimary();
    while (!driver.mttr_probe().complete() && sim.Now() < 300 * kSecond) {
      sim.RunUntil(sim.Now() + 250 * kMillisecond);
    }
    return ToSeconds(driver.mttr_probe().mttr());
  }();

  EXPECT_LT(mams, 9.0);
  EXPECT_LT(mams, ha);
  EXPECT_LT(ha, avatar);
}

}  // namespace
}  // namespace mams
