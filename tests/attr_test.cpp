// Tests for the PR's latency-attribution stack (DESIGN.md §8): the
// AttrRecorder flight recorder, the periodic time-series Sampler, the stall
// Watchdog rules, the registry's survival of component teardown, and the
// end-to-end LogP attribution of a real ping-pong run.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/logp.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/scenario.hpp"
#include "cluster/config.hpp"
#include "lanai/config.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "obs/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"
#include "sim/engine.hpp"

namespace vnet::obs {
namespace {

// ------------------------------------------------------------ AttrRecorder

TEST(Attr, FoldsStageDeltasIntoEndpointHistograms) {
  MetricsRegistry reg;
  AttrRecorder rec(reg);
  rec.set_sample_interval(1);

  const std::uint64_t k = AttrRecorder::key(3, 7, 42);
  ASSERT_TRUE(rec.begin(3, 7, 42, 1000));
  rec.stamp(k, Stage::kDoorbell, 1100);
  rec.stamp(k, Stage::kNicPickup, 1150);
  rec.stamp(k, Stage::kWireInject, 1400);
  rec.stamp(k, Stage::kWireDeliver, 1900);
  rec.stamp(k, Stage::kRxDeposit, 2200);
  rec.stamp(k, Stage::kHandlerWake, 2300);
  rec.finish(k, 2550);

  EXPECT_EQ(rec.completed(), 1u);
  EXPECT_EQ(rec.inflight(), 0u);

  const Snapshot snap = reg.snapshot(3000);
  const std::string p = "host.3.ep.7.attr.";
  struct Want {
    const char* leaf;
    double mean;
  } wants[] = {{"os", 100},     {"nic_tx_wait", 50}, {"nic_tx", 250},
               {"wire", 500},   {"nic_rx", 300},     {"wake", 100},
               {"or", 250},     {"e2e", 1550}};
  for (const Want& w : wants) {
    const HistogramData* h = snap.histogram(p + w.leaf);
    ASSERT_NE(h, nullptr) << w.leaf;
    EXPECT_EQ(h->count, 1u) << w.leaf;
    EXPECT_DOUBLE_EQ(h->mean(), w.mean) << w.leaf;
  }

  const AttrSummary sum = summarize_attr(snap);
  EXPECT_DOUBLE_EQ(sum.stage_sum_mean_ns(), 1550.0);
  EXPECT_DOUBLE_EQ(sum.e2e.mean(), 1550.0);
  EXPECT_NE(render_attr_report(snap), "");
}

TEST(Attr, SampleIntervalAdmitsOneInN) {
  MetricsRegistry reg;
  AttrRecorder rec(reg);

  // Disabled: nothing is ever tracked.
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.begin(0, 0, 0, 0));
  EXPECT_EQ(rec.tracked(), 0u);

  rec.set_sample_interval(2);
  int admitted = 0;
  for (std::uint64_t id = 0; id < 8; ++id) {
    if (rec.begin(0, 0, id, 0)) ++admitted;
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(rec.tracked(), 4u);
}

TEST(Attr, FirstStampWinsAndGapsAreSkipped) {
  MetricsRegistry reg;
  AttrRecorder rec(reg);
  rec.set_sample_interval(1);

  const std::uint64_t k = AttrRecorder::key(0, 1, 5);
  ASSERT_TRUE(rec.begin(0, 1, 5, 100));
  rec.stamp(k, Stage::kDoorbell, 200);
  rec.stamp(k, Stage::kDoorbell, 900);  // retransmission path: ignored
  // kNicPickup..kHandlerWake never stamped (e.g. local delivery).
  rec.finish(k, 1100);

  const Snapshot snap = reg.snapshot(0);
  const HistogramData* os = snap.histogram("host.0.ep.1.attr.os");
  ASSERT_NE(os, nullptr);
  EXPECT_DOUBLE_EQ(os->mean(), 100.0);  // 200 - 100, not 900 - 100
  // Intervals with a missing endpoint are not attributed.
  const HistogramData* wire = snap.histogram("host.0.ep.1.attr.wire");
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->count, 0u);
  const HistogramData* e2e = snap.histogram("host.0.ep.1.attr.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_DOUBLE_EQ(e2e->mean(), 1000.0);
}

TEST(Attr, DropForgetsFlightWithoutRecording) {
  MetricsRegistry reg;
  AttrRecorder rec(reg);
  rec.set_sample_interval(1);

  const std::uint64_t k = AttrRecorder::key(1, 2, 3);
  ASSERT_TRUE(rec.begin(1, 2, 3, 0));
  rec.stamp(k, Stage::kDoorbell, 10);
  rec.drop(k);  // returned to sender
  rec.finish(k, 99);  // unknown key now: ignored

  EXPECT_EQ(rec.completed(), 0u);
  EXPECT_EQ(rec.inflight(), 0u);
  EXPECT_EQ(render_attr_report(reg.snapshot(0)), "");
}

// The acceptance criterion of this PR: a pure ping-pong run, every flight
// tracked, must decompose the one-way latency into stages whose sum
// reconciles with the end-to-end mean, and two one-way flights must
// reconcile with the independently measured round trip within 5%.
TEST(Attr, LogpAttributionIsDeterministicAndReconciles) {
  const apps::LogpResult a = apps::measure_logp(
      cluster::NowConfig(2), /*pingpongs=*/300, /*stream=*/0, true);
  const apps::LogpResult b = apps::measure_logp(
      cluster::NowConfig(2), /*pingpongs=*/300, /*stream=*/0, true);

  // Same seed, same config: bit-identical attribution.
  EXPECT_EQ(a.attr_report, b.attr_report);
  EXPECT_DOUBLE_EQ(a.attr_e2e_us, b.attr_e2e_us);
  EXPECT_DOUBLE_EQ(a.attr_stage_sum_us, b.attr_stage_sum_us);

  ASSERT_GT(a.attr_e2e_us, 0.0);
  EXPECT_NEAR(a.attr_stage_sum_us, a.attr_e2e_us, 0.01 * a.attr_e2e_us);
  EXPECT_NEAR(2.0 * a.attr_e2e_us, a.rtt_us, 0.05 * a.rtt_us);
  EXPECT_NE(a.attr_report.find("e2e"), std::string::npos);
}

// ---------------------------------------------------------------- Sampler

TEST(Sampler, CsvGoldenWithPrefixFilterAndWindowDeltas) {
  MetricsRegistry reg;
  Counter c = reg.counter("x.c");
  Gauge g = reg.gauge("x.g");
  Histogram h = reg.histogram("x.h");
  Counter skip = reg.counter("y.skip");

  SamplerConfig cfg;
  cfg.prefixes = {"x."};
  Sampler s(reg, cfg);

  s.sample(1000);  // baseline only
  EXPECT_EQ(s.rows(), 0u);

  c.inc(5);
  g.set(2.5);
  h.record(10);
  h.record(20);
  skip.inc(9);
  s.sample(2000);

  c.inc(1);
  g.set(-1);
  h.record(40);
  s.sample(3500);

  // Histograms additionally export sketch quantiles of each window's delta:
  // window 1 holds {10, 20} (p50 interpolates inside 10's sub-bucket), and
  // window 2 holds the single sample {40} (all quantiles clamp to it).
  EXPECT_EQ(s.csv(),
            "window_end_ns,window_ns,x.c,x.g,x.h.count,x.h.mean"
            ",x.h.p50,x.h.p99,x.h.p999\n"
            "2000,1000,5,2.5,2,15,10.25,10.3725,10.37475\n"
            "3500,1500,1,-1,1,40,40,40,40\n");
}

TEST(Sampler, EmptyPrefixListExportsEverything) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.c");
  Sampler s(reg, SamplerConfig{});
  s.sample(0);
  c.inc(3);
  s.sample(10);
  EXPECT_EQ(s.csv(), "window_end_ns,window_ns,a.c\n10,10,3\n");
}

// ---------------------------------------------------------------- Watchdog

TEST(Watchdog, ChannelStallFiresOnlyWhileProgressIsZero) {
  MetricsRegistry reg;
  Gauge busy = reg.gauge("host.0.nic.busy_channels");
  Counter acks = reg.counter("host.0.nic.acks_received");

  WatchdogConfig cfg;
  cfg.window_ns = 500'000;
  Watchdog wd(reg, cfg);
  int fired = 0;
  wd.set_on_fire([&fired](const WatchdogEvent&) { ++fired; });

  busy.set(2);
  wd.check(0);  // baseline
  EXPECT_TRUE(wd.events().empty());

  wd.check(500'000);  // busy, no acks in window -> stall
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].rule, "channel-stall");
  EXPECT_EQ(wd.events()[0].subject, "host.0.nic");
  EXPECT_EQ(fired, 1);

  acks.inc();
  wd.check(1'000'000);  // progress resumed -> quiet
  busy.set(0);
  wd.check(1'500'000);  // idle -> quiet
  EXPECT_EQ(wd.events().size(), 1u);

  const std::string summary = wd.render_summary();
  EXPECT_NE(summary.find("channel-stall"), std::string::npos);
  EXPECT_NE(summary.find("host.0.nic"), std::string::npos);
}

TEST(Watchdog, FrameLoiterAndLinkPeggedRules) {
  MetricsRegistry reg;
  Gauge backlog = reg.gauge("host.2.nic.send_backlog");
  Counter sent = reg.counter("host.2.nic.data_sent");
  Counter bytes = reg.counter("fabric.link.h0->sw.bytes_tx");

  WatchdogConfig cfg;
  cfg.window_ns = 500'000;
  cfg.link_ns_per_byte = 1.0;
  Watchdog wd(reg, cfg);

  backlog.set(3);
  wd.check(0);
  bytes.inc(500'000);  // 500k bytes x 1 ns/B over a 500us window: pegged
  wd.check(500'000);

  ASSERT_EQ(wd.events().size(), 2u);
  EXPECT_EQ(wd.events()[0].rule, "frame-loiter");
  EXPECT_EQ(wd.events()[0].subject, "host.2.nic");
  EXPECT_EQ(wd.events()[1].rule, "link-pegged");
  EXPECT_EQ(wd.events()[1].subject, "fabric.link.h0->sw");

  // A transmission (even a retransmission) clears the loiter rule.
  sent.inc();
  wd.check(1'000'000);
  EXPECT_EQ(wd.events().size(), 2u);
}

TEST(Watchdog, SpinPollRule) {
  MetricsRegistry reg;
  Counter wakeups = reg.counter("host.1.ep.2.wait_wakeups");
  Counter handled = reg.counter("host.1.ep.2.messages_handled");
  Counter returns = reg.counter("host.1.ep.2.returns_handled");

  WatchdogConfig cfg;
  cfg.spin_wakeup_threshold = 64;
  Watchdog wd(reg, cfg);
  wd.check(0);
  wakeups.inc(64);  // at the threshold: quiet
  wd.check(500'000);
  EXPECT_TRUE(wd.events().empty());

  wakeups.inc(65);  // past it with nothing consumed: a busy loop
  wd.check(1'000'000);
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].at_ns, 1'000'000);
  EXPECT_EQ(wd.events()[0].rule, "spin-poll");
  EXPECT_EQ(wd.events()[0].subject, "host.1.ep.2");
  EXPECT_EQ(wd.events()[0].detail,
            "65 wait wakeups, nothing consumed in window");

  wakeups.inc(500);  // a handled message is progress
  handled.inc();
  wd.check(1'500'000);
  wakeups.inc(500);  // so is a handled return
  returns.inc();
  wd.check(2'000'000);
  EXPECT_EQ(wd.events().size(), 1u);

  // Threshold 0 disables the rule.
  cfg.spin_wakeup_threshold = 0;
  Watchdog off(reg, cfg);
  off.check(2'000'000);
  wakeups.inc(1000);
  off.check(2'500'000);
  EXPECT_TRUE(off.events().empty());
}

// The watchdog binds registry readers once per registry generation; every
// registration and removal between two checks must rebind it without
// changing what the rules see.
TEST(Watchdog, RebindsWhenRegistryChanges) {
  WatchdogConfig cfg;
  cfg.window_ns = 500'000;

  {  // (a) a counter registered after the baseline grows from 0
    MetricsRegistry reg;
    Watchdog wd(reg, cfg);
    wd.check(0);
    reg.counter("host.0.ep.1.wait_wakeups").inc(100);
    wd.check(500'000);
    ASSERT_EQ(wd.events().size(), 1u);
    EXPECT_EQ(wd.events()[0].detail,
              "100 wait wakeups, nothing consumed in window");
  }

  {  // (b) removed pull callbacks are never called again
    MetricsRegistry reg;
    int calls = 0;
    auto nic = std::make_unique<std::uint64_t>(7);
    reg.gauge_fn("host.1.nic.busy_channels", [&calls, p = nic.get()] {
      ++calls;
      return static_cast<double>(*p);
    });
    reg.counter_fn("host.1.nic.acks_received", [&calls, p = nic.get()] {
      ++calls;
      return *p;
    });
    Watchdog wd(reg, cfg);
    wd.check(0);
    wd.check(500'000);
    ASSERT_EQ(wd.events().size(), 1u);  // 7 busy, no acks: stalled
    EXPECT_EQ(wd.events()[0].subject, "host.1.nic");

    reg.remove_fn_prefix("host.1.nic.");
    nic.reset();  // ASan reports any later call through the callbacks
    const int before = calls;
    wd.check(1'000'000);
    wd.check(1'500'000);
    EXPECT_EQ(calls, before);
    EXPECT_EQ(wd.events().size(), 1u);
  }

  {  // (c) an owned cell shadows a pull callback of the same name
    MetricsRegistry reg;
    int fn_calls = 0;
    reg.counter_fn("host.2.ep.1.wait_wakeups", [&fn_calls] {
      ++fn_calls;
      return std::uint64_t{1'000'000};
    });
    Counter wakeups = reg.counter("host.2.ep.1.wait_wakeups");
    Gauge busy = reg.gauge("host.2.nic.busy_channels");
    reg.gauge_fn("host.2.nic.busy_channels", [&fn_calls] {
      ++fn_calls;
      return 0.0;
    });
    Watchdog wd(reg, cfg);
    wd.check(0);
    wakeups.inc(100);
    busy.set(3);
    wd.check(500'000);
    ASSERT_EQ(wd.events().size(), 2u);
    EXPECT_EQ(wd.events()[0].rule, "channel-stall");
    EXPECT_EQ(wd.events()[0].detail,
              "3 busy channel(s), no ack/completion in window");
    EXPECT_EQ(wd.events()[1].rule, "spin-poll");
    EXPECT_EQ(wd.events()[1].detail,
              "100 wait wakeups, nothing consumed in window");
    EXPECT_EQ(fn_calls, 0);
  }

  {  // (d) a gauge registered after its NIC's counters diffs them against
     // their previous values, not against 0
    MetricsRegistry reg;
    Counter acks = reg.counter("host.3.nic.acks_received");
    acks.inc(5);
    Watchdog wd(reg, cfg);
    wd.check(0);
    reg.gauge("host.3.nic.busy_channels").set(1);
    wd.check(500'000);  // acks did not move in this window: stalled
    ASSERT_EQ(wd.events().size(), 1u);
    EXPECT_EQ(wd.events()[0].rule, "channel-stall");
    EXPECT_EQ(wd.events()[0].subject, "host.3.nic");
    acks.inc();
    wd.check(1'000'000);
    EXPECT_EQ(wd.events().size(), 1u);
  }
}

// A scripted outage through the real stack: the server's only routes die
// for 6ms mid-run, so client channels hold messages with no acks coming
// back and the scenario's watchdog must name the stall.
TEST(Watchdog, FiresDuringInjectedTrunkOutage) {
  chaos::ScenarioSpec s;
  s.name = "watchdog_trunk_outage";
  s.seed = 1;
  s.fat_tree = true;  // leaf 0 holds controller+server, leaf 1+ the clients
  s.clients = 2;
  s.requests_per_client = 20;
  s.plan = [](cluster::Cluster&, sim::Rng&) {
    return chaos::FaultPlan{}
        .trunk_flap(1 * sim::ms, 0, 0, 6 * sim::ms)
        .trunk_flap(1 * sim::ms, 0, 1, 6 * sim::ms);
  };
  const chaos::ScenarioResult res = chaos::run_scenario(s);

  ASSERT_FALSE(res.watchdog_events.empty())
      << "no stall detected across a 6ms total outage";
  bool stall = false;
  for (const WatchdogEvent& e : res.watchdog_events) {
    if (e.rule == "channel-stall") stall = true;
  }
  EXPECT_TRUE(stall);
  EXPECT_NE(res.watchdog_summary.find("channel-stall"), std::string::npos);
}

// ------------------------------------------------- registry vs teardown

// Regression for the pull-callback hazard: a NIC registers gauge_fns whose
// lambdas capture `this`; destroying the NIC (the reboot/teardown path)
// must unregister them, or the next snapshot() calls through a dangling
// pointer (ASan catches the use-after-free without the fix).
TEST(Metrics, SnapshotSafeAfterNicTeardown) {
  sim::Engine eng{11};
  auto fabric = myrinet::Fabric::crossbar(eng, 2, {});
  std::vector<std::unique_ptr<lanai::Nic>> nics;
  for (myrinet::NodeId n = 0; n < 2; ++n) {
    nics.push_back(
        std::make_unique<lanai::Nic>(eng, *fabric, n, lanai::NicConfig{}));
    nics.back()->start();
  }
  eng.run();

  const Snapshot before = eng.snapshot();
  ASSERT_EQ(before.gauges.count("host.1.nic.busy_channels"), 1u);

  nics[1].reset();  // NIC dies mid-engine-lifetime

  const Snapshot after = eng.snapshot();
  EXPECT_EQ(after.gauges.count("host.1.nic.busy_channels"), 0u);
  EXPECT_EQ(after.gauges.count("host.1.nic.send_backlog"), 0u);
  EXPECT_EQ(after.gauges.count("host.0.nic.busy_channels"), 1u);
}

}  // namespace
}  // namespace vnet::obs
