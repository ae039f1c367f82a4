// Unit tests for the vnet::obs observability layer: metric registration /
// snapshot / diff semantics, histogram quantiles, table rendering, trace
// export (round-tripped through json::parse), the compile-out guarantee
// of the VNET_TRACE_* macros, and whole-stack determinism (same seed =>
// identical snapshots and traces).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vnet::obs {
namespace {

// ------------------------------------------------------------ registry

TEST(Metrics, CounterRegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter a = reg.counter("host.0.nic.retransmissions");
  Counter b = reg.counter("host.0.nic.retransmissions");
  a.inc();
  b.inc(2);
  // Same name => same cell: both handles see the combined count.
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.snapshot().counter("host.0.nic.retransmissions"), 3u);
}

TEST(Metrics, UnboundHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5.0);
  h.record(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, SnapshotAndDiff) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.events");
  Gauge g = reg.gauge("a.level");
  c.inc(10);
  g.set(3.0);
  const Snapshot before = reg.snapshot(1000);
  c.inc(7);
  g.set(9.0);
  const Snapshot after = reg.snapshot(2500);

  const Snapshot d = diff(after, before);
  EXPECT_EQ(d.at_ns, 1500);
  EXPECT_EQ(d.counter("a.events"), 7u);   // counters subtract
  EXPECT_EQ(d.gauge("a.level"), 9.0);     // gauges keep the newer level
  EXPECT_EQ(d.counter("missing"), 0u);
}

TEST(Metrics, SumCountersByPrefixAndSuffix) {
  MetricsRegistry reg;
  reg.counter("host.0.nic.retransmissions").inc(2);
  reg.counter("host.1.nic.retransmissions").inc(3);
  reg.counter("host.1.nic.timeouts").inc(100);
  reg.counter("fabric.link.a.retransmissions").inc(50);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.sum_counters("host.", ".nic.retransmissions"), 5u);
  EXPECT_EQ(s.sum_counters("host."), 105u);
  EXPECT_EQ(s.sum_counters("", ".retransmissions"), 55u);
}

TEST(Metrics, PullCallbacksAndRemoval) {
  MetricsRegistry reg;
  std::uint64_t external = 42;
  reg.counter_fn("fabric.link.x.packets_tx", [&] { return external; });
  reg.gauge_fn("fabric.switch.0.queue_watermark", [] { return 7.0; });
  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter("fabric.link.x.packets_tx"), 42u);
  EXPECT_EQ(s.gauge("fabric.switch.0.queue_watermark"), 7.0);

  external = 50;
  EXPECT_EQ(reg.snapshot().counter("fabric.link.x.packets_tx"), 50u);

  // After removal the callbacks are gone (and never again sampled — the
  // component they read from may be destroyed).
  reg.remove_fn_prefix("fabric.");
  s = reg.snapshot();
  EXPECT_EQ(s.counters.count("fabric.link.x.packets_tx"), 0u);
  EXPECT_EQ(s.gauges.count("fabric.switch.0.queue_watermark"), 0u);
}

// ----------------------------------------------------------- histogram

TEST(Metrics, HistogramStatsAndQuantiles) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("host.0.nic.rtt_ns");
  for (int i = 0; i < 100; ++i) h.record(8.0);
  const Snapshot s = reg.snapshot();
  const HistogramData* d = s.histogram("host.0.nic.rtt_ns");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 100u);
  EXPECT_DOUBLE_EQ(d->mean(), 8.0);
  EXPECT_DOUBLE_EQ(d->min_seen, 8.0);
  EXPECT_DOUBLE_EQ(d->max_seen, 8.0);
  // Every sample is 8.0, so the interpolated estimate is clamped to the
  // observed [min_seen, max_seen] range and comes back exact.
  EXPECT_DOUBLE_EQ(d->quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(d->quantile(0.99), 8.0);
}

TEST(Metrics, HistogramQuantileOrdersBuckets) {
  HistogramData d;
  for (int i = 0; i < 90; ++i) d.record(2.0);     // sub-bucket [2, 2.0625)
  for (int i = 0; i < 10; ++i) d.record(1000.0);  // sub-bucket [992, 1008)
  // Sub-bucketed sketch: estimates land within the 1/32-wide sub-bucket of
  // the true value (<= ~1.6% relative error), not at a power-of-two midpoint.
  EXPECT_NEAR(d.quantile(0.5), 2.0, 2.0 * 0.05);
  EXPECT_NEAR(d.quantile(0.95), 1000.0, 1000.0 * 0.05);
  EXPECT_NEAR(d.quantile(0.0), 2.0, 2.0 * 0.01);
  EXPECT_GE(d.quantile(0.0), 2.0);  // clamped to min_seen
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile is 0, not NaN or a crash.
  HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

  // Single sample: every quantile is that sample (clamped to min==max).
  HistogramData one;
  one.record(7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 7.0);

  // Bucket 0 holds [0, 1): sub-unit samples interpolate inside it and the
  // estimates stay clamped to the observed [0, 0.5] range.
  HistogramData tiny;
  tiny.record(0.0);
  tiny.record(0.5);
  EXPECT_GE(tiny.quantile(0.0), 0.0);
  EXPECT_LE(tiny.quantile(0.0), 0.5);
  EXPECT_GE(tiny.quantile(1.0), 0.0);
  EXPECT_LE(tiny.quantile(1.0), 0.5 + 1e-12);

  // Out-of-range q is clamped rather than reading past the mass.
  EXPECT_DOUBLE_EQ(one.quantile(-0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.5), 7.0);
}

TEST(Metrics, HistogramQuantileOnDiffedWindow) {
  // A diffed window can be empty (count diffs to zero) while min/max carry
  // the cumulative values — quantile must return 0, not min_seen garbage.
  MetricsRegistry reg;
  Histogram h = reg.histogram("x");
  h.record(4.0);
  const Snapshot a = reg.snapshot();
  const Snapshot b = reg.snapshot();
  const Snapshot zero = diff(b, a);
  const HistogramData* zd = zero.histogram("x");
  ASSERT_NE(zd, nullptr);
  EXPECT_EQ(zd->count, 0u);
  EXPECT_DOUBLE_EQ(zd->quantile(0.5), 0.0);

  // A diffed window whose samples all fall in one sub-bucket stays within
  // the clamp range even though min/max are cumulative, not per-window.
  h.record(100.0);
  h.record(100.0);
  const Snapshot c = reg.snapshot();
  const Snapshot win = diff(c, b);
  const HistogramData* wd = win.histogram("x");
  ASSERT_NE(wd, nullptr);
  EXPECT_EQ(wd->count, 2u);
  EXPECT_NEAR(wd->quantile(0.99), 100.0, 100.0 * 0.05);
}

TEST(Metrics, HistogramQuantileWithinFivePercentOfExact) {
  // Golden accuracy check for the sub-bucketed sketch: against an exact
  // sorted-sample computation over a deterministic heavy-tailed set, every
  // tracked quantile through p99.9 must be within 5% relative error.
  std::vector<double> samples;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 20000; ++i) {
    // xorshift64* — deterministic pseudo-random draw in [0, 1).
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const double u =
        static_cast<double>((x * 0x2545F4914F6CDD1Dull) >> 11) / 9007199254740992.0;
    // Heavy tail: mostly ~1e3, a long tail out to ~1e6.
    samples.push_back(1e3 + 1e6 * u * u * u * u);
  }
  HistogramData d;
  for (double s : samples) d.record(s);

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  auto exact = [&](double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = exact(q);
    EXPECT_NEAR(d.quantile(q), want, want * 0.05) << "q=" << q;
  }
}

// record() finds a sample's bucket from the double's exponent and top
// mantissa bits; the ilogb/ldexp formula it replaced is kept here as the
// reference. Each sample must land in exactly the reference bucket.
TEST(Metrics, HistogramBucketsMatchLibmReference) {
  const auto reference_bucket = [](double x) -> std::size_t {
    constexpr std::uint32_t kSub = HistogramData::kSubBuckets;
    if (x < 1.0) return 0;
    const int m = std::ilogb(x);
    auto s = static_cast<std::uint32_t>((std::ldexp(x, -m) - 1.0) * kSub);
    if (s >= kSub) s = kSub - 1;
    return 1 + static_cast<std::size_t>(m) * kSub + s;
  };
  // Records x and reports whether exactly its reference bucket grew.
  HistogramData d;
  std::vector<std::uint64_t> want;
  const auto lands_in_reference_bucket = [&](double x) {
    d.record(x);
    const std::size_t b = reference_bucket(x);
    if (want.size() <= b) want.resize(b + 1, 0);
    ++want[b];
    return b < d.buckets.size() && d.buckets[b] == want[b];
  };

  for (int k = -10; k <= 110; ++k) {
    const double p = std::ldexp(1.0, k);
    ASSERT_TRUE(lands_in_reference_bucket(p)) << "x=" << p;
    const double below = std::nextafter(p, 0.0);
    ASSERT_TRUE(lands_in_reference_bucket(below)) << "x=" << below;
  }
  for (std::uint32_t i = 0; i <= (1u << 20); ++i) {
    ASSERT_TRUE(lands_in_reference_bucket(i)) << "x=" << i;
  }
  std::mt19937_64 rng(0x5eed);
  std::uniform_real_distribution<double> exponent(-10.0, 110.0);
  for (int i = 0; i < 200000; ++i) {
    const double x = std::exp2(exponent(rng));
    ASSERT_TRUE(lands_in_reference_bucket(x)) << "x=" << x;
  }
  // Negatives share bucket 0 with [0, 1).
  ASSERT_TRUE(lands_in_reference_bucket(-3.5));
  EXPECT_EQ(d.buckets, want);
}

TEST(Metrics, HistogramDiffSubtractsCounts) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("x");
  h.record(4.0);
  h.record(4.0);
  const Snapshot before = reg.snapshot();
  h.record(4.0);
  const Snapshot after = reg.snapshot();
  const Snapshot d = diff(after, before);
  const HistogramData* hd = d.histogram("x");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 1u);
  EXPECT_DOUBLE_EQ(hd->sum, 4.0);
}

// ---------------------------------------------------------- render_table

TEST(Metrics, RenderTablePivotsRowsAndColumns) {
  MetricsRegistry reg;
  reg.counter("fabric.link.h0->sw.packets_tx").inc(12);
  reg.counter("fabric.link.h0->sw.drops_down").inc(0);
  reg.counter("fabric.link.sw->h0.packets_tx").inc(9);
  reg.counter("fabric.link.idle.packets_tx");  // all-zero row
  const std::string table = render_table(reg.snapshot(), "fabric.link");

  EXPECT_NE(table.find("packets_tx"), std::string::npos);  // column header
  EXPECT_NE(table.find("h0->sw"), std::string::npos);      // row label
  EXPECT_NE(table.find("12"), std::string::npos);
  EXPECT_EQ(table.find("idle"), std::string::npos);  // zero row skipped

  const std::string all = render_table(reg.snapshot(), "fabric.link",
                                       /*skip_zero_rows=*/false);
  EXPECT_NE(all.find("idle"), std::string::npos);
}

// Parses a Chrome trace export and returns its "traceEvents" array; a
// document that fails to parse fails the calling test.
json::Value::Array trace_events(const std::string& doc) {
  json::Value v;
  std::string error;
  EXPECT_TRUE(json::parse(doc, &v, &error)) << error << "\n" << doc;
  return v["traceEvents"].as_array();
}

// -------------------------------------------------------------- tracer

TEST(Trace, ExportRoundTripsThroughJsonParse) {
  Tracer tr;
  std::int64_t t = 0;
  tr.set_clock([&] { return t; });
  tr.set_enabled(true);
  tr.set_process_name(0, "node 0");
  tr.set_thread_name(0, 1, "wire \"rx\"\n");  // exercise escaping

  t = 1500;
  tr.instant("endpoint", "ep_load", 0, 0, {{"ep", 3}, {"frame", -1}});
  t = 4750;
  tr.complete("wire", "packet", 1500, 0, 1, {{"bytes", 4096}});

  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.events()[0].ph, 'i');
  EXPECT_EQ(tr.events()[1].ph, 'X');
  EXPECT_EQ(tr.events()[1].dur_ns, 3250);

  const json::Value::Array evs = trace_events(tr.chrome_trace_json());
  // 2 metadata events (process_name, thread_name) + 2 recorded events.
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[1]["args"]["name"].as_string(), "wire \"rx\"\n");
  // Sub-microsecond times survive as fractional microseconds.
  EXPECT_EQ(evs[2]["ph"].as_string(), "i");
  EXPECT_EQ(evs[2]["ts"].as_number(), 1.5);
  EXPECT_EQ(evs[2]["args"]["frame"].as_number(), -1.0);
  EXPECT_EQ(evs[3]["ph"].as_string(), "X");
  EXPECT_EQ(evs[3]["dur"].as_number(), 3.25);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  Tracer tr;
  std::int64_t t = 0;
  tr.set_clock([&] { return t; });
  tr.set_enabled(true);
  tr.set_capacity(4);
  EXPECT_EQ(tr.capacity(), 4u);

  for (int i = 0; i < 10; ++i) {
    t = i;
    tr.instant("cat", "e", 0, 0, {{"i", i}});
  }
  // 10 events into a 4-slot ring: 6 overwritten, newest 4 retained in
  // chronological order.
  EXPECT_EQ(tr.dropped(), 6u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].ts_ns, static_cast<std::int64_t>(6 + i));
  }
  // The export of a wrapped ring is still well-formed JSON.
  EXPECT_EQ(trace_events(tr.chrome_trace_json()).size(), 4u);

  // clear() empties the buffer but keeps the lifetime drop counter.
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.dropped(), 6u);
}

TEST(Trace, ShrinkingCapacityKeepsNewestEvents) {
  Tracer tr;
  std::int64_t t = 0;
  tr.set_clock([&] { return t; });
  tr.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    t = i;
    tr.instant("cat", "e");
  }
  EXPECT_EQ(tr.dropped(), 0u);
  tr.set_capacity(2);  // discards the 4 oldest
  EXPECT_EQ(tr.dropped(), 4u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].ts_ns, 4);
  EXPECT_EQ(evs[1].ts_ns, 5);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tr;
  tr.instant("cat", "x");
  tr.complete("cat", "y", 0);
  EXPECT_TRUE(tr.events().empty());
  EXPECT_TRUE(trace_events(tr.chrome_trace_json()).empty());
}

// The compile-out guarantee: with VNET_TRACING=OFF the macros expand to
// ((void)0) and must not evaluate their arguments, let alone record; with
// it ON a disabled tracer must also skip argument evaluation.
TEST(Trace, MacroCompileConfigIsZeroCost) {
  Tracer tr;
  int evaluations = 0;
  // [[maybe_unused]]: with tracing compiled out the macros discard their
  // arguments, so nothing references the lambda.
  [[maybe_unused]] auto arg = [&]() -> std::int64_t { return ++evaluations; };

  tr.set_enabled(false);
  VNET_TRACE_INSTANT(tr, "cat", "off", 0, 0, {{"v", arg()}});
  EXPECT_EQ(evaluations, 0);  // both configs: disabled => unevaluated
  EXPECT_TRUE(tr.events().empty());

  tr.set_enabled(true);
  VNET_TRACE_INSTANT(tr, "cat", "on", 0, 0, {{"v", arg()}});
  VNET_TRACE_COMPLETE(tr, "cat", "span", 0, 0, 0);
#if VNET_OBS_TRACING
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(tr.events().size(), 2u);
#else
  // Compiled out: nothing is evaluated or recorded even when enabled.
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(tr.events().empty());
#endif
}

// ----------------------------------------------- whole-stack integration

struct RunArtifacts {
  std::map<std::string, std::uint64_t> counters;
  std::string trace_json;
  std::uint64_t handled = 0;
};

// A 2-node request/reply workload with tracing on; returns everything an
// identical run must reproduce exactly.
RunArtifacts traced_ping_pong() {
  RunArtifacts out;
  cluster::Cluster cl(cluster::NowConfig(2));
  cl.engine().tracer().set_enabled(true);

  struct Shared {
    am::Name server;
    std::uint64_t got_request = 0;
    std::uint64_t got_reply = 0;
  };
  auto sh = std::make_shared<Shared>();

  cl.spawn_thread(1, "server", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 0xbeef);
    ep->set_handler(1, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_request = m.arg(0);
      m.reply(2, {m.arg(0) + 1});
    });
    sh->server = ep->name();
    while (sh->got_request == 0) {
      co_await ep->wait_events(t, am::kEventArrivals);
      co_await ep->poll(t);
    }
    co_await t.sleep(1 * sim::ms);
    co_await ep->destroy(t);
  });

  cl.spawn_thread(0, "client", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 0xcafe);
    ep->set_handler(2, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_reply = m.arg(0);
    });
    while (!sh->server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, sh->server);
    co_await ep->request(t, 0, 1, 41);
    while (sh->got_reply == 0) co_await ep->poll(t);
    co_await ep->destroy(t);
  });

  cl.run_to_completion();
  const Snapshot snap = cl.engine().snapshot();
  out.counters = snap.counters;
  out.trace_json = cl.engine().tracer().chrome_trace_json();
  out.handled = snap.sum_counters("host.", ".messages_handled");
  return out;
}

TEST(ObsIntegration, RegistrySeesWholeStack) {
  cluster::Cluster cl(cluster::NowConfig(2));

  struct Shared {
    am::Name server;
    std::uint64_t got_request = 0;
    std::uint64_t got_reply = 0;
  };
  auto sh = std::make_shared<Shared>();

  cl.spawn_thread(1, "server", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 1);
    ep->set_handler(1, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_request = m.arg(0);
      m.reply(2, {m.arg(0) + 1});
    });
    sh->server = ep->name();
    while (sh->got_request == 0) {
      co_await ep->wait_events(t, am::kEventArrivals);
      co_await ep->poll(t);
    }
    co_await t.sleep(1 * sim::ms);
    co_await ep->destroy(t);
  });
  cl.spawn_thread(0, "client", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 2);
    ep->set_handler(2, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_reply = m.arg(0);
    });
    while (!sh->server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, sh->server);
    co_await ep->request(t, 0, 1, 41);
    while (sh->got_reply == 0) co_await ep->poll(t);

    // Every layer publishes into the one registry namespace.
    const Snapshot snap = t.engine().snapshot();
    const std::string prefix =
        "host.0.ep." + std::to_string(ep->name().ep) + ".";
    EXPECT_EQ(snap.counter(prefix + "requests_sent"), 1u);
    EXPECT_EQ(snap.counter(prefix + "messages_handled"), 1u);
    EXPECT_GE(snap.counter("host.0.nic.data_sent"), 1u);
    EXPECT_GE(snap.counter("host.0.driver.remaps"), 1u);
    co_await ep->destroy(t);
  });

  cl.run_to_completion();
  const Snapshot snap = cl.engine().snapshot();
  EXPECT_GE(snap.sum_counters("host.", ".requests_sent"), 1u);
  EXPECT_GE(snap.sum_counters("fabric.link.", ".packets_tx"), 1u);
  EXPECT_GE(snap.counter("sim.events_processed"), 1u);
  EXPECT_GE(snap.counter("host.0.driver.endpoints_created"), 1u);
  // The tracer's ring-drop counter is exported through the registry; no
  // drops here (capacity is large), but the metric must exist.
  EXPECT_EQ(snap.counter("obs.trace.dropped"), 0u);
  cl.engine().tracer().set_capacity(1);
  cl.engine().tracer().set_enabled(true);
  cl.engine().tracer().instant("t", "a");
  cl.engine().tracer().instant("t", "b");
  EXPECT_EQ(cl.engine().snapshot().counter("obs.trace.dropped"), 1u);
}

TEST(ObsIntegration, SameSeedRunsProduceIdenticalSnapshotsAndTraces) {
  const RunArtifacts a = traced_ping_pong();
  const RunArtifacts b = traced_ping_pong();
  EXPECT_EQ(a.handled, b.handled);
  EXPECT_GT(a.handled, 0u);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.trace_json, b.trace_json);

  [[maybe_unused]] const json::Value::Array evs = trace_events(a.trace_json);
#if VNET_OBS_TRACING
  EXPECT_FALSE(evs.empty());
#endif
}

}  // namespace
}  // namespace vnet::obs
