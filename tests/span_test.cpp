// Tests for the causal span stack (DESIGN.md §12) and the latency
// attribution folded from it (§8): the SpanRecorder flight slab, its
// handles and per-endpoint rings, the attr.<stage> histograms fed at
// commit, critical-path extraction (stage sums telescope to e2e even with
// missing boundaries), the differential tail profiler's cohort math and
// rendering, and the end-to-end capture of a real ping-pong run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/logp.hpp"
#include "cluster/config.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace vnet::obs {
namespace {

// Builds a complete synthetic trace with every boundary present and the
// given per-stage durations starting at `t0`.
SpanTrace make_trace(std::uint32_t node, std::uint32_t ep, std::uint64_t id,
                     std::int64_t t0,
                     const std::array<std::int64_t, kSpanStageCount>& stages) {
  SpanTrace t;
  t.node = node;
  t.ep = ep;
  t.msg_id = id;
  std::int64_t at = t0;
  for (unsigned i = 0; i < kSpanPointCount; ++i) {
    t.at[i] = at;
    if (i < kSpanStageCount) at += stages[i];
  }
  t.complete = true;
  return t;
}

// ------------------------------------------------------------ SpanRecorder

TEST(Span, SamplingIntervalAdmitsOneInN) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.begin(0, 1, 99, 10));  // disabled: null handle

  rec.set_sample_interval(3);
  int admitted = 0;
  for (std::uint64_t id = 0; id < 9; ++id) {
    if (rec.begin(0, 1, id, static_cast<std::int64_t>(id))) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(rec.tracked(), 3u);
  EXPECT_EQ(rec.inflight(), 3u);
  // The admission counter is published through the registry.
  EXPECT_EQ(reg.snapshot().counter("obs.span.tracked"), 3u);
}

TEST(Span, FirstWinsStampsSurviveRetransmission) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  const SpanHandle h = rec.begin(2, 5, 7, 100);
  ASSERT_TRUE(h);
  rec.point(h, SpanPoint::kNicPickup, 200);
  rec.point(h, SpanPoint::kNicPickup, 900);  // retransmit re-crosses: ignored
  rec.edge(h, SpanEdge::Kind::kRetransmit, 900, 1);
  rec.finish(h, 1000);

  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 1u);
  const SpanTrace& t = traces[0];
  EXPECT_EQ(t.node, 2u);
  EXPECT_EQ(t.ep, 5u);
  EXPECT_EQ(t.msg_id, 7u);
  EXPECT_EQ(t.at[static_cast<unsigned>(SpanPoint::kNicPickup)], 200);
  EXPECT_EQ(t.retransmits, 1u);
  ASSERT_EQ(t.edge_count, 1u);
  EXPECT_EQ(t.edges[0].at_ns, 900);
  EXPECT_TRUE(t.complete);
  EXPECT_EQ(rec.completed(), 1u);
  EXPECT_EQ(rec.inflight(), 0u);
}

TEST(Span, EdgeArrayOverflowKeepsCounting) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  const SpanHandle h = rec.begin(0, 0, 1, 0);
  ASSERT_TRUE(h);
  for (int i = 0; i < 6; ++i) {
    rec.edge(h, SpanEdge::Kind::kRetransmit, 10 * (i + 1), i);
  }
  rec.finish(h, 100);
  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].edge_count, SpanTrace::kMaxEdges);
  EXPECT_EQ(traces[0].retransmits, 6u);  // counted past the inline array
}

TEST(Span, PerEndpointRingOverwritesOldest) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  rec.set_ring_capacity(2);
  for (std::uint64_t id = 0; id < 5; ++id) {
    const SpanHandle h =
        rec.begin(1, 1, id, static_cast<std::int64_t>(10 * id));
    ASSERT_TRUE(h);
    rec.finish(h, static_cast<std::int64_t>(10 * id + 5));
  }
  EXPECT_EQ(rec.completed(), 5u);
  EXPECT_EQ(rec.overwritten(), 3u);
  EXPECT_EQ(reg.snapshot().counter("obs.span.overwritten"), 3u);
  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 2u);  // newest two retained, oldest first
  EXPECT_EQ(traces[0].msg_id, 3u);
  EXPECT_EQ(traces[1].msg_id, 4u);
}

TEST(Span, CollectOrdersEndpointsDeterministically) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  // Commit in scrambled endpoint order; collect() must come back sorted by
  // (node, ep) so two identical runs produce identical vectors.
  for (auto [node, ep, id] : {std::array<std::uint32_t, 3>{3, 1, 30},
                              std::array<std::uint32_t, 3>{0, 2, 2},
                              std::array<std::uint32_t, 3>{0, 1, 1}}) {
    const SpanHandle h = rec.begin(node, ep, id, 0);
    ASSERT_TRUE(h);
    rec.finish(h, 10);
  }
  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].msg_id, 1u);
  EXPECT_EQ(traces[1].msg_id, 2u);
  EXPECT_EQ(traces[2].msg_id, 30u);
}

TEST(Span, ReturnedTraceIsCommittedAndFlagged) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  const SpanHandle h = rec.begin(0, 3, 9, 50);
  ASSERT_TRUE(h);
  rec.point(h, SpanPoint::kWireInject, 80);
  rec.drop_returned(h, 500, /*reason=*/2);

  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].returned);
  EXPECT_FALSE(traces[0].complete);
  ASSERT_EQ(traces[0].edge_count, 1u);
  EXPECT_EQ(traces[0].edges[0].kind, SpanEdge::Kind::kReturnToSender);
  EXPECT_EQ(traces[0].edges[0].arg, 2);
  EXPECT_EQ(reg.snapshot().counter("obs.span.returned"), 1u);
}

TEST(Span, StaleHandleStampsNothing) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);

  // A finished flight's slot is recycled by the next begin(); stamps
  // through the finished flight's handle must not reach the new flight.
  const SpanHandle done = rec.begin(0, 1, 1, 0);
  ASSERT_TRUE(done);
  rec.finish(done, 50);
  const SpanHandle next = rec.begin(0, 1, 2, 100);
  ASSERT_TRUE(next);
  EXPECT_EQ(next.slot, done.slot);
  rec.point(done, SpanPoint::kNicPickup, 60, /*hops=*/3);
  rec.edge(done, SpanEdge::Kind::kRetransmit, 60);
  rec.drop_returned(done, 70);
  rec.finish(done, 80);
  EXPECT_EQ(rec.completed(), 1u);
  EXPECT_EQ(rec.inflight(), 1u);
  EXPECT_EQ(reg.snapshot().counter("obs.span.returned"), 0u);

  rec.finish(next, 150);
  auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 2u);
  const SpanTrace& t = traces[1];
  EXPECT_EQ(t.msg_id, 2u);
  EXPECT_EQ(t.at[static_cast<unsigned>(SpanPoint::kNicPickup)], -1);
  EXPECT_EQ(t.at[static_cast<unsigned>(SpanPoint::kHandlerDone)], 150);
  EXPECT_EQ(t.retransmits, 0u);
  EXPECT_EQ(t.edge_count, 0u);
  EXPECT_EQ(t.wire_hops, 0u);
  EXPECT_FALSE(t.returned);

  // clear() drops in-flight state: the live flight's handle goes stale.
  const SpanHandle dropped = rec.begin(0, 1, 3, 200);
  ASSERT_TRUE(dropped);
  rec.clear();
  EXPECT_EQ(rec.inflight(), 0u);
  rec.point(dropped, SpanPoint::kDoorbell, 210);
  rec.finish(dropped, 300);
  EXPECT_EQ(rec.completed(), 2u);
  EXPECT_TRUE(rec.collect().empty());
  EXPECT_EQ(reg.snapshot().histogram("host.0.ep.1.attr.e2e")->count, 2u);
}

// ------------------------------------------------------------ attribution

// One hand-stamped remote trace: every attr.<stage> histogram receives its
// mapped span stages (nic_tx_wait = doorbell_gate + tx_queue).
TEST(Attr, FoldsStageDeltasIntoEndpointHistograms) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);

  const SpanHandle h = rec.begin(3, 7, 42, 1000);
  ASSERT_TRUE(h);
  rec.point(h, SpanPoint::kDoorbell, 1100);
  rec.point(h, SpanPoint::kGateOpen, 1120);
  rec.point(h, SpanPoint::kNicPickup, 1150);
  rec.point(h, SpanPoint::kWireInject, 1400);
  rec.point(h, SpanPoint::kWireDeliver, 1900, /*hops=*/2);
  rec.point(h, SpanPoint::kRxDeposit, 2200);
  rec.point(h, SpanPoint::kHandlerWake, 2300);
  rec.finish(h, 2550);

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
    const HistogramData* hist = snap.histogram(p + w.leaf);
    ASSERT_NE(hist, nullptr) << w.leaf;
    EXPECT_EQ(hist->count, 1u) << w.leaf;
    EXPECT_DOUBLE_EQ(hist->mean(), w.mean) << w.leaf;
  }

  const AttrSummary sum = summarize_attr(snap);
  EXPECT_DOUBLE_EQ(sum.stage_sum_mean_ns(), 1550.0);
  EXPECT_DOUBLE_EQ(sum.e2e.mean(), 1550.0);
  const std::string report = render_attr_report(snap);
  EXPECT_NE(report.find("nic_tx_wait"), std::string::npos);
  EXPECT_EQ(report.find("events"), std::string::npos);
}

TEST(Attr, SampleIntervalAdmitsOneInN) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);

  // Disabled: nothing is ever tracked.
  EXPECT_FALSE(rec.begin(0, 0, 0, 0));
  EXPECT_EQ(rec.tracked(), 0u);

  // Only admitted messages fold: the others carry null handles.
  rec.set_sample_interval(2);
  for (std::uint64_t id = 0; id < 8; ++id) {
    rec.finish(rec.begin(0, 0, id, 0), 10);
  }
  EXPECT_EQ(rec.tracked(), 4u);
  const Snapshot snap = reg.snapshot();
  const HistogramData* e2e = snap.histogram("host.0.ep.0.attr.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 4u);
}

// A trace without wire boundaries (local delivery) and without a gate
// stamp: each gap charges to the stage where the message was, and the
// stage means still sum to e2e.
TEST(Attr, FirstStampWinsAndGapsChargeEarlierStage) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);

  const SpanHandle h = rec.begin(0, 1, 5, 100);
  ASSERT_TRUE(h);
  rec.point(h, SpanPoint::kDoorbell, 200);
  rec.point(h, SpanPoint::kDoorbell, 900);  // repeat stamp: ignored
  rec.point(h, SpanPoint::kNicPickup, 300);
  rec.point(h, SpanPoint::kRxDeposit, 700);
  rec.point(h, SpanPoint::kHandlerWake, 750);
  rec.finish(h, 1100);

  const Snapshot snap = reg.snapshot(0);
  const std::string p = "host.0.ep.1.attr.";
  struct Want {
    const char* leaf;
    double mean;
  } wants[] = {{"os", 100},  // 200 - 100, not 900 - 100
               {"nic_tx_wait", 100},
               {"nic_tx", 400},  // absorbs the skipped wire stages
               {"wire", 0},      {"nic_rx", 0},     {"wake", 50},
               {"or", 350},      {"e2e", 1000}};
  for (const Want& w : wants) {
    const HistogramData* hist = snap.histogram(p + w.leaf);
    ASSERT_NE(hist, nullptr) << w.leaf;
    EXPECT_EQ(hist->count, 1u) << w.leaf;
    EXPECT_DOUBLE_EQ(hist->mean(), w.mean) << w.leaf;
  }
  const AttrSummary sum = summarize_attr(snap);
  EXPECT_DOUBLE_EQ(sum.stage_sum_mean_ns(), sum.e2e.mean());
}

TEST(Attr, DropForgetsFlightWithoutRecording) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);

  const SpanHandle returned = rec.begin(1, 2, 3, 0);
  ASSERT_TRUE(returned);
  rec.point(returned, SpanPoint::kDoorbell, 10);
  rec.drop_returned(returned, 50);  // returned to sender
  rec.finish(returned, 99);         // stale handle now: ignored
  const SpanHandle unfinished = rec.begin(1, 2, 4, 0);
  ASSERT_TRUE(unfinished);
  rec.point(unfinished, SpanPoint::kDoorbell, 10);

  EXPECT_EQ(rec.completed(), 0u);
  EXPECT_EQ(rec.inflight(), 1u);
  const Snapshot snap = reg.snapshot(0);
  EXPECT_EQ(snap.histogram("host.1.ep.2.attr.e2e"), nullptr);
  EXPECT_EQ(render_attr_report(snap), "");
  // The returned trace is still retained for the tail profiler.
  EXPECT_EQ(rec.collect().size(), 1u);
}

// A pure ping-pong run, every flight tracked, must decompose the one-way
// latency into stages whose sum reconciles with the end-to-end mean, and
// two one-way flights must reconcile with the independently measured
// round trip within 5%.
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

// --------------------------------------------------------- critical path

TEST(Span, CriticalPathTelescopesToE2e) {
  const std::array<std::int64_t, kSpanStageCount> stages = {10, 20, 30, 40,
                                                            50, 60, 70, 80};
  const SpanTrace t = make_trace(0, 0, 1, 1000, stages);
  EXPECT_EQ(t.e2e_ns(), 360);
  const auto cp = t.critical_path();
  std::int64_t sum = 0;
  for (unsigned i = 0; i < kSpanStageCount; ++i) {
    EXPECT_EQ(cp[i], stages[i]) << span_stage_name(i);
    sum += cp[i];
  }
  EXPECT_EQ(sum, t.e2e_ns());
}

TEST(Span, CriticalPathChargesGapsToEarlierStage) {
  // Local delivery: the wire boundaries are never crossed. The pickup→
  // deposit gap must charge wholly to tx_service and still telescope.
  SpanTrace t;
  t.at.fill(-1);
  t.at[static_cast<unsigned>(SpanPoint::kEnqueue)] = 0;
  t.at[static_cast<unsigned>(SpanPoint::kDoorbell)] = 10;
  t.at[static_cast<unsigned>(SpanPoint::kNicPickup)] = 25;
  t.at[static_cast<unsigned>(SpanPoint::kRxDeposit)] = 125;
  t.at[static_cast<unsigned>(SpanPoint::kHandlerDone)] = 200;
  t.complete = true;

  const auto cp = t.critical_path();
  EXPECT_EQ(cp[0], 10);   // host_enqueue
  EXPECT_EQ(cp[1], 15);   // doorbell_gate: doorbell→pickup (gate missing)
  EXPECT_EQ(cp[2], 0);    // tx_queue: boundary missing, nothing charged
  EXPECT_EQ(cp[3], 100);  // tx_service absorbs the skipped wire stages
  EXPECT_EQ(cp[4], 0);    // wire
  EXPECT_EQ(cp[5], 0);    // rx_service: its starting boundary is missing
  EXPECT_EQ(cp[6], 75);   // wake absorbs deposit→done (handler-wake missing)
  std::int64_t sum = 0;
  for (auto v : cp) sum += v;
  EXPECT_EQ(sum, t.e2e_ns());
  EXPECT_EQ(t.e2e_ns(), 200);
}

TEST(Span, StageNamesAndWaitSplit) {
  EXPECT_STREQ(span_stage_name(0), "host_enqueue");
  EXPECT_STREQ(span_stage_name(4), "wire");
  EXPECT_STREQ(span_stage_name(7), "handler");
  EXPECT_FALSE(span_stage_is_wait(0));
  EXPECT_TRUE(span_stage_is_wait(1));  // doorbell_gate
  EXPECT_TRUE(span_stage_is_wait(2));  // tx_queue
  EXPECT_FALSE(span_stage_is_wait(4));
  EXPECT_TRUE(span_stage_is_wait(6));  // wake
}

// ----------------------------------------------------------- tail report

TEST(Tail, DifferentialReportIsolatesTheSlowStage) {
  // 99 fast traces (all stages 100ns) and one slow one whose wake stage
  // carries an extra 10us: the report must put `wake` first among culprits
  // and reconcile both cohorts exactly.
  std::vector<SpanTrace> traces;
  const std::array<std::int64_t, kSpanStageCount> fast = {100, 100, 100, 100,
                                                          100, 100, 100, 100};
  for (std::uint64_t i = 0; i < 99; ++i) {
    traces.push_back(make_trace(0, 1, i, 1000 * static_cast<std::int64_t>(i),
                                fast));
  }
  auto slow = fast;
  slow[6] += 10000;  // wake
  traces.push_back(make_trace(0, 1, 99, 990000, slow));

  const TailReport r = tail_report(traces);
  EXPECT_EQ(r.total, 100u);
  EXPECT_EQ(r.excluded, 0u);
  EXPECT_EQ(r.tail_count, 1u);
  EXPECT_GT(r.p50_count, 0u);
  EXPECT_DOUBLE_EQ(r.e2e_p50_ns, 800.0);
  EXPECT_DOUBLE_EQ(r.e2e_max_ns, 10800.0);
  EXPECT_DOUBLE_EQ(r.tail_e2e_mean_ns, 10800.0);
  EXPECT_DOUBLE_EQ(r.p50_e2e_mean_ns, 800.0);
  EXPECT_EQ(r.culprits[0], 6u);  // wake is the top culprit
  EXPECT_NEAR(r.stages[6].delta_ns, 10000.0, 1e-9);
  EXPECT_NEAR(r.stages[6].share, 1.0, 1e-9);
  // Reconciliation is an identity: stage sums equal cohort e2e means.
  EXPECT_LT(r.p50_recon_err(), 1e-12);
  EXPECT_LT(r.tail_recon_err(), 1e-12);

  const std::string rendered = render_tail_report(r);
  EXPECT_NE(rendered.find("wake"), std::string::npos);
  EXPECT_NE(rendered.find("top p99 culprits:"), std::string::npos);
  // The culprit line leads with the slow stage.
  const auto pos = rendered.find("top p99 culprits:");
  EXPECT_NE(rendered.find("wake", pos), std::string::npos);
}

TEST(Tail, ExcludesReturnedAndIncompleteTraces) {
  std::vector<SpanTrace> traces;
  const std::array<std::int64_t, kSpanStageCount> s = {1, 1, 1, 1, 1, 1, 1, 1};
  traces.push_back(make_trace(0, 0, 0, 0, s));
  SpanTrace returned = make_trace(0, 0, 1, 0, s);
  returned.returned = true;
  traces.push_back(returned);
  SpanTrace incomplete;
  incomplete.at.fill(-1);
  traces.push_back(incomplete);

  const TailReport r = tail_report(traces);
  EXPECT_EQ(r.total, 1u);
  EXPECT_EQ(r.excluded, 2u);
  EXPECT_EQ(r.tail_count, 1u);
}

TEST(Tail, EmptyInputRendersEmpty) {
  const TailReport r = tail_report({});
  EXPECT_EQ(r.total, 0u);
  EXPECT_EQ(render_tail_report(r), "");
}

TEST(Tail, RetransmitAndHopAnnotationsSegregateByCohort) {
  std::vector<SpanTrace> traces;
  const std::array<std::int64_t, kSpanStageCount> fast = {10, 10, 10, 10,
                                                          10, 10, 10, 10};
  for (std::uint64_t i = 0; i < 50; ++i) {
    SpanTrace t = make_trace(0, 0, i, 0, fast);
    t.wire_hops = 2;
    traces.push_back(t);
  }
  auto slow = fast;
  slow[3] += 5000;
  SpanTrace t = make_trace(0, 0, 50, 0, slow);
  t.retransmits = 3;
  t.wire_hops = 4;
  traces.push_back(t);

  const TailReport r = tail_report(traces);
  EXPECT_EQ(r.tail_retransmits, 3u);
  EXPECT_EQ(r.p50_retransmits, 0u);
  EXPECT_DOUBLE_EQ(r.tail_wire_hops, 4.0);
  EXPECT_DOUBLE_EQ(r.p50_wire_hops, 2.0);
}

// ------------------------------------------------------------ end-to-end

cluster::ClusterConfig small_config() {
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  return cfg;
}

TEST(SpanIntegration, LogpRunCapturesAndReconcilesTailProfile) {
  const apps::LogpResult r =
      apps::measure_logp(small_config(), /*pingpongs=*/60, /*stream=*/0,
                         /*attribute=*/true);
  ASSERT_FALSE(r.tail_report.empty());
  EXPECT_NE(r.tail_report.find("top p99 culprits:"), std::string::npos);
  EXPECT_NE(r.tail_report.find("host_enqueue"), std::string::npos);
  // ISSUE acceptance: the profiler's cohort stage sums reconcile with the
  // cohort e2e means to within 5% at p50 and in the tail (an identity by
  // construction, so in practice ~0).
  EXPECT_LE(r.tail_recon_p50, 0.05);
  EXPECT_LE(r.tail_recon_tail, 0.05);
}

TEST(SpanIntegration, SameSeedRunsProduceIdenticalTailReports) {
  const apps::LogpResult a =
      apps::measure_logp(small_config(), 40, 0, true);
  const apps::LogpResult b =
      apps::measure_logp(small_config(), 40, 0, true);
  EXPECT_EQ(a.tail_report, b.tail_report);
  ASSERT_FALSE(a.tail_report.empty());
}

}  // namespace
}  // namespace vnet::obs
