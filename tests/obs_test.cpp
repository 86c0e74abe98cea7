// Unit tests for the observability subsystem: span lifecycle and
// mismatch accounting, histogram quantiles cross-checked against the
// exact metrics::Cdf, the Chrome trace_event exporter (golden output),
// invariant probes catching a deliberately corrupted view, and the metric
// catalogue in docs/OBSERVABILITY.md matching what a cluster registers.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "coord/state_machine.hpp"
#include "metrics/series.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace mams::obs {
namespace {

// --- spans -----------------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecorderIsInert) {
  SimTime t = 0;
  TraceRecorder rec(&t);
  ASSERT_FALSE(rec.enabled());
  TraceRecorder::Span span = rec.Begin("cat", "name", 1, 0);
  EXPECT_FALSE(span.active());
  rec.End(span);  // no-op, must not count a mismatch
  rec.Instant("cat", "point");
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_TRUE(rec.instants().empty());
  EXPECT_EQ(rec.mismatched_ends(), 0u);
}

TEST(TraceRecorderTest, NestedSpansCompleteInnerFirst) {
  SimTime t = 100;
  TraceRecorder rec(&t);
  rec.set_enabled(true);

  TraceRecorder::Span outer = rec.Begin("failover", "switch", 7, 2);
  t = 250;
  TraceRecorder::Span inner = rec.Begin("failover", "step1", 7, 2);
  t = 400;
  rec.End(inner);
  t = 900;
  rec.End(outer, {{"ok", "true"}});

  ASSERT_EQ(rec.spans().size(), 2u);
  // Completion order: the nested span lands before its enclosing one.
  const SpanRecord& first = rec.spans()[0];
  const SpanRecord& second = rec.spans()[1];
  EXPECT_EQ(first.name, "step1");
  EXPECT_EQ(first.begin, 250);
  EXPECT_EQ(first.end, 400);
  EXPECT_EQ(second.name, "switch");
  EXPECT_EQ(second.begin, 100);
  EXPECT_EQ(second.end, 900);
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(first.begin, second.begin);
  EXPECT_LE(first.end, second.end);
  ASSERT_EQ(second.args.size(), 1u);
  EXPECT_EQ(second.args[0].key, "ok");
  EXPECT_EQ(second.args[0].value, "true");
  EXPECT_EQ(rec.open_spans(), 0u);
  EXPECT_EQ(rec.mismatched_ends(), 0u);
}

TEST(TraceRecorderTest, HandleEndIsIdempotentButRawDoubleEndCounts) {
  SimTime t = 0;
  TraceRecorder rec(&t);
  rec.set_enabled(true);

  // The Span handle consumes itself: a second End is a safe no-op.
  TraceRecorder::Span span = rec.Begin("cat", "a");
  rec.End(span);
  rec.End(span);
  EXPECT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.mismatched_ends(), 0u);

  // The raw API detects both double-end and never-begun ends.
  const std::uint64_t id = rec.BeginRaw("cat", "b", kInvalidNode, 0);
  EXPECT_TRUE(rec.EndRaw(id));
  EXPECT_FALSE(rec.EndRaw(id));       // double end
  EXPECT_FALSE(rec.EndRaw(999999));   // never begun
  EXPECT_EQ(rec.mismatched_ends(), 2u);
}

TEST(TraceRecorderTest, OpenSpansAreVisibleAndClearable) {
  SimTime t = 0;
  TraceRecorder rec(&t);
  rec.set_enabled(true);
  TraceRecorder::Span span = rec.Begin("cat", "leaked");
  EXPECT_TRUE(span.active());
  EXPECT_EQ(rec.open_spans(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.open_spans(), 0u);
  EXPECT_TRUE(rec.spans().empty());
}

// --- metrics ---------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.counter("mds.ops");
  c->Add();
  c->Add(4);
  EXPECT_EQ(reg.counter("mds.ops"), c);  // get-or-create returns same slot
  EXPECT_EQ(reg.counter("mds.ops")->value, 5u);

  Gauge* g = reg.gauge("mds.last_sn");
  g->Set(10);
  g->MaxWith(7);
  EXPECT_EQ(g->value, 10);
  g->MaxWith(12);
  EXPECT_EQ(g->value, 12);
}

TEST(HistogramTest, QuantilesTrackExactCdf) {
  // Identical samples into the O(1)-memory histogram and the exact,
  // every-sample Cdf; log2-bucketing guarantees ~3% relative error.
  Histogram hist;
  metrics::Cdf cdf;
  std::mt19937_64 rng(12345);
  std::lognormal_distribution<double> dist(10.0, 1.5);  // latency-shaped
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::int64_t>(dist(rng));
    hist.Record(v);
    cdf.Record(static_cast<double>(v));
  }
  ASSERT_EQ(hist.count(), 20000u);
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = cdf.Quantile(q);
    const auto approx = static_cast<double>(hist.Quantile(q));
    EXPECT_NEAR(approx, exact, 0.05 * exact + 1.0)
        << "quantile " << q << " diverged";
  }
  EXPECT_EQ(static_cast<double>(hist.min()), cdf.Min());
  EXPECT_EQ(static_cast<double>(hist.max()), cdf.Max());
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram hist;
  for (std::int64_t v = 0; v < 64; ++v) hist.Record(v);
  EXPECT_EQ(hist.Quantile(0.0), 0);
  EXPECT_EQ(hist.Quantile(1.0), 63);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.max(), 63);
  hist.Record(-5);  // negatives clamp to zero rather than corrupting state
  EXPECT_EQ(hist.min(), 0);
}

// --- Chrome export ---------------------------------------------------------

TEST(ChromeTraceTest, GoldenJson) {
  SimTime t = 1500;
  TraceRecorder rec(&t);
  rec.set_enabled(true);

  TraceRecorder::Span span =
      rec.Begin("failover", "election", 3, 1, {{"seed", "42"}});
  t = 4000;
  rec.End(span, {{"won", "true"}});
  t = 5000;
  rec.Instant("mds", "crash", 2, 0);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"X\",\"name\":\"election\",\"cat\":\"failover\","
      "\"pid\":1,\"tid\":3,\"ts\":1.500,\"dur\":2.500,"
      "\"args\":{\"seed\":\"42\",\"won\":\"true\"}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"crash\",\"cat\":\"mds\","
      "\"pid\":0,\"tid\":2,\"ts\":5.000,\"args\":{}}\n"
      "]}\n";
  EXPECT_EQ(ChromeTraceJson(rec), expected);
}

TEST(ChromeTraceTest, EscapesStringsAndSkipsOpenSpans) {
  SimTime t = 0;
  TraceRecorder rec(&t);
  rec.set_enabled(true);
  rec.Instant("cat", "quote\"back\\slash\nnewline");
  TraceRecorder::Span leaked = rec.Begin("cat", "still-open");
  (void)leaked;

  const std::string json = ChromeTraceJson(rec);
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
  EXPECT_EQ(json.find("still-open"), std::string::npos);
  EXPECT_EQ(rec.open_spans(), 1u);
}

// --- invariant probes ------------------------------------------------------

TEST(ProbeRegistryTest, DetectsDeliberateDoubleActivation) {
  SimTime t = 0;
  ProbeRegistry probes(&t);
  coord::ViewStateMachine machine;

  const ProbeId id = probes.Register("single_active", [&machine]() {
    for (const auto& [g, view] : machine.views()) {
      const int actives = view.CountInState(ServerState::kActive);
      if (actives > 1) {
        return std::optional<std::string>(
            "group " + std::to_string(g) + " has " +
            std::to_string(actives) + " actives");
      }
    }
    return std::optional<std::string>();
  });

  auto set_state = [&machine](NodeId node, ServerState s) {
    coord::Command c;
    c.kind = coord::CmdKind::kSetState;
    c.group = 0;
    c.node = node;
    c.state = s;
    machine.Apply(c);
  };

  // Healthy: one active, one standby.
  set_state(1, ServerState::kActive);
  set_state(2, ServerState::kStandby);
  EXPECT_EQ(probes.Evaluate(), 0u);
  EXPECT_EQ(probes.violation_count(), 0u);

  // Corrupt the view: a second simultaneous active — the exact split-brain
  // MAMS's lock + fencing are meant to exclude.
  t = 777;
  set_state(2, ServerState::kActive);
  EXPECT_EQ(probes.Evaluate(), 1u);
  ASSERT_EQ(probes.violations().size(), 1u);
  EXPECT_EQ(probes.violations()[0].probe, "single_active");
  EXPECT_NE(probes.violations()[0].detail.find("2 actives"),
            std::string::npos);
  EXPECT_EQ(probes.violations()[0].at, 777);

  // Heal and re-evaluate: no new violations, history is preserved.
  set_state(2, ServerState::kStandby);
  EXPECT_EQ(probes.Evaluate(), 0u);
  EXPECT_EQ(probes.violation_count(), 1u);
  probes.ClearViolations();
  EXPECT_EQ(probes.violation_count(), 0u);

  probes.Unregister(id);
  EXPECT_EQ(probes.probe_count(), 0u);
  set_state(3, ServerState::kActive);  // now two actives again, nobody looks
  EXPECT_EQ(probes.Evaluate(), 0u);
}

TEST(ObservabilityTest, BundleSharesOneClock) {
  SimTime t = 42;
  Observability obs(&t);
  obs.tracer().set_enabled(true);
  TraceRecorder::Span s = obs.tracer().Begin("cat", "x");
  t = 43;
  obs.tracer().End(s);
  ASSERT_EQ(obs.tracer().spans().size(), 1u);
  EXPECT_EQ(obs.tracer().spans()[0].begin, 42);
  EXPECT_EQ(obs.tracer().spans()[0].end, 43);
  obs.metrics().counter("c")->Add();
  EXPECT_EQ(obs.metrics().counter("c")->value, 1u);
}

}  // namespace
}  // namespace mams::obs

namespace mams::cluster {
namespace {

/// The catalogue names a family of metrics by a placeholder segment.
std::string Family(const std::string& name) {
  for (const std::string prefix : {"net.sent.", "net.bytes."}) {
    if (name.starts_with(prefix)) return prefix + "<type>";
  }
  if (name.starts_with("mds.last_sn.")) return "mds.last_sn.<node>";
  return name;
}

/// The first column of the table under "## Metric catalogue".
std::set<std::string> DocumentedMetrics() {
  std::ifstream in(MAMS_DOCS_DIR "/OBSERVABILITY.md");
  std::set<std::string> out;
  bool catalogue = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("## ")) catalogue = line == "## Metric catalogue";
    if (catalogue && line.starts_with("| `")) {
      out.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  return out;
}

TEST(MetricCatalogueTest, DocumentsExactlyWhatAClusterRegisters) {
  sim::Simulator sim(5);
  net::Network net(sim);
  CfsConfig cfg;
  cfg.groups = 2;
  cfg.standbys_per_group = 2;
  cfg.clients = 2;
  cfg.mds.standby_reads.serve_reads = true;
  cfg.mds.client_leases.grant_leases = true;
  cfg.client.read_routing = ReadRouting::kRoundRobinStandby;
  cfg.client.cache.enabled = true;
  CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/cat/d" + std::to_string(i) + "/f";
    cfs.client(0).Create(path, [](Status) {});
    cfs.client(0).Create(path + "2", [](Status) {});
    cfs.client(1).GetFileInfo(path, [](Result<fsns::FileInfo>) {});
  }
  sim.RunUntil(sim.Now() + kSecond);
  // Client 0 leases each directory from its active, and a second create
  // in each patches its own line.
  for (int i = 0; i < 8; ++i) {
    cfs.client(0).GetFileInfo(
        "/cat/d" + std::to_string(i) + "/f", [](Result<fsns::FileInfo>) {},
        {.require_active = true});
  }
  const SimTime leased = sim.Now();
  sim.RunUntil(sim.Now() + 100 * kMillisecond);
  for (int i = 0; i < 8; ++i) {
    cfs.client(0).Create("/cat/d" + std::to_string(i) + "/g", [](Status) {});
  }
  // Each line hit, then a read of each directory from its active in the
  // lines' last quarter renews them (one patched child of two: renewable).
  sim.RunUntil(sim.Now() + 100 * kMillisecond);
  for (int i = 0; i < 8; ++i) {
    cfs.client(0).GetFileInfo("/cat/d" + std::to_string(i) + "/f",
                              [](Result<fsns::FileInfo>) {});
  }
  sim.RunUntil(leased + core::kLeaseTtl - core::kLeaseTtl / 8);
  for (int i = 0; i < 8; ++i) {
    cfs.client(0).GetFileInfo("/cat/d" + std::to_string(i) + "/h",
                              [](Result<fsns::FileInfo>) {},
                              {.require_active = true});
  }
  sim.RunUntil(sim.Now() + 2 * kSecond);

  std::set<std::string> registered;
  const obs::MetricsRegistry& reg = sim.obs().metrics();
  for (const auto& [name, m] : reg.counters()) registered.insert(Family(name));
  for (const auto& [name, m] : reg.gauges()) registered.insert(Family(name));
  for (const auto& [name, m] : reg.histograms()) {
    registered.insert(Family(name));
  }
  // The miss reasons split client.cache_misses exactly.
  const auto& counters = reg.counters();
  std::uint64_t reasons = 0;
  for (const char* name :
       {"client.cache_miss_no_line", "client.cache_miss_dead_line",
        "client.cache_miss_no_entry", "client.cache_miss_expired",
        "client.cache_miss_below_floor", "client.cache_miss_off_page"}) {
    reasons += counters.at(name).value;
  }
  EXPECT_EQ(reasons, counters.at("client.cache_misses").value);
  EXPECT_GT(reasons, 0u);
  EXPECT_EQ(counters.at("client.cache_patches").value,
            cfs.client(0).counters().cache_patches +
                cfs.client(1).counters().cache_patches);
  EXPECT_GT(counters.at("client.cache_patches").value, 0u);
  const std::uint64_t renewed =
      counters.at("client.cache_renewals_applied").value;
  EXPECT_GT(renewed, 0u);
  EXPECT_GE(counters.at("client.cache_renewals").value, renewed);
  EXPECT_EQ(counters.at("mds.lease_renewals").value, renewed);
  // Each round sends one prepare per standby (two per group here).
  const auto& histograms = reg.histograms();
  EXPECT_EQ(histograms.at("mds.prepare_ack_ns").count(),
            2 * histograms.at("mds.sync_batch_ns").count());

  const std::set<std::string> documented = DocumentedMetrics();
  ASSERT_FALSE(documented.empty());
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.contains(name)) << "undocumented: " << name;
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.contains(name)) << "never registered: " << name;
  }
}

}  // namespace
}  // namespace mams::cluster
