// Parallel deterministic simulation (sim/shard.hpp): the shard router's
// merge order and lookahead guard, cross-shard link FIFO + flow control,
// the shards=1 windowed oracle (digest-identical to the serial engine),
// multi-shard run-to-run determinism, span capture across shards, and a
// 1000-host smoke run.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "am/endpoint.hpp"
#include "chaos/scenario.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "myrinet/link.hpp"
#include "obs/span.hpp"
#include "sim/process.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"

namespace {

using namespace vnet;

TEST(ShardRouter, MergesInTimeSourceSeqOrder) {
  sim::ShardGroup g(2, 1, 25);
  std::vector<int> order;
  // Same-timestamp records from both shards plus an earlier one: delivery
  // order must be (when, src, seq), independent of post order.
  g.router().post(1, 0, 100, [&] { order.push_back(10); });
  g.router().post(0, 0, 100, [&] { order.push_back(1); });
  g.router().post(0, 0, 100, [&] { order.push_back(2); });
  g.router().post(1, 0, 50, [&] { order.push_back(5); });
  g.router().deliver(g);
  g.engine(0).run();
  EXPECT_EQ(order, (std::vector<int>{5, 1, 2, 10}));
  EXPECT_EQ(g.router().crossings(), 4u);
}

TEST(ShardRouter, RejectsLookaheadViolation) {
  sim::ShardGroup g(2, 1, 25);
  g.router().begin_window(1000);
  // A record strictly inside the executing window could land in a
  // neighbour's already-executed past; post() must refuse it.
  EXPECT_THROW(g.router().post(0, 1, 999, [] {}), std::logic_error);
  // Exactly at the horizon is legal (>= window end).
  EXPECT_NO_THROW(g.router().post(0, 1, 1000, [] {}));
  g.router().end_window();
  // No window active: unconstrained (setup/teardown time).
  EXPECT_NO_THROW(g.router().post(0, 1, 1, [] {}));
}

TEST(ShardGroup, RejectsBadConfig) {
  EXPECT_THROW(sim::ShardGroup(0, 1, 25), std::invalid_argument);
  EXPECT_THROW(sim::ShardGroup(2, 1, 0), std::invalid_argument);
  EXPECT_NO_THROW(sim::ShardGroup(1, 1, 0));  // serial needs no lookahead
}

// A split channel must deliver packets in send order with credit-based
// flow control working across the shard boundary in both directions.
TEST(ShardChannel, CrossShardFifoAndFlowControl) {
  sim::ShardGroup g(2, 1, 25);
  myrinet::LinkParams lp;  // 2 credits, 25 ns propagation
  myrinet::Channel tx(g.engine(0), lp);
  myrinet::Channel rx(g.engine(1), lp);
  tx.make_remote_tx(&g.router(), 0, 1, &rx);
  rx.make_remote_rx(&g.router(), 1, 0, &tx);

  constexpr int kPackets = 32;
  std::vector<myrinet::NodeId> got;
  rx.on_deliver = [&](myrinet::Packet p) {
    got.push_back(p.src);  // src carries the send sequence number
    rx.release_credit();
  };

  int sent = 0;
  std::function<void()> pump = [&] {
    while (sent < kPackets && tx.can_send()) {
      myrinet::Packet p;
      p.src = sent++;
      p.wire_bytes = 64;
      tx.send(std::move(p));
    }
    if (sent < kPackets) tx.notify_when_ready();
  };
  tx.on_tx_ready = pump;
  g.engine(0).at(0, [&] { pump(); });

  g.run_to_completion();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) EXPECT_EQ(got[i], i) << "at " << i;
  // With only 2 credits the sender must have stalled and been woken by
  // routed credit returns, so records crossed in both directions.
  EXPECT_GT(g.router().crossings(), static_cast<std::uint64_t>(kPackets));
}

// The CI determinism oracle: a 1-shard group in force-windows mode runs
// the identical (time, seq)-ordered event stream as the plain serial
// engine, so a full chaos scenario must produce the same replay digest,
// event count, and verdict.
TEST(ShardOracle, ForceWindowsMatchesSerialChaosRun) {
  chaos::ScenarioSpec serial_spec = chaos::standard_scenario("link_flap", 7);
  const chaos::ScenarioResult serial = chaos::run_scenario(serial_spec);

  chaos::ScenarioSpec windowed_spec = chaos::standard_scenario("link_flap", 7);
  auto base = windowed_spec.tweak;
  windowed_spec.tweak = [base](cluster::ClusterConfig& cfg) {
    if (base) base(cfg);
    cfg.shards = 1;
    cfg.shard_force_windows = true;
  };
  const chaos::ScenarioResult windowed = chaos::run_scenario(windowed_spec);

  EXPECT_EQ(serial.replay_digest, windowed.replay_digest);
  EXPECT_EQ(serial.events_processed, windowed.events_processed);
  EXPECT_EQ(serial.counts.injected, windowed.counts.injected);
  EXPECT_EQ(serial.counts.delivered, windowed.counts.delivered);
  EXPECT_EQ(serial.violations, windowed.violations);
  EXPECT_EQ(serial.resolved_at, windowed.resolved_at);
}

// Multi-shard chaos runs (sequential windows — scenarios share host state
// across shards) must be run-to-run deterministic for a fixed seed, and
// the transport invariants must still hold on the sharded fabric.
TEST(ShardDeterminism, TwoShardChaosRunIsReproducible) {
  const auto run = [] {
    chaos::ScenarioSpec spec = chaos::standard_scenario("burst_loss", 3);
    auto base = spec.tweak;
    spec.tweak = [base](cluster::ClusterConfig& cfg) {
      if (base) base(cfg);
      cfg.shards = 2;
      cfg.shard_force_windows = true;
      cfg.shard_threads = false;
    };
    return chaos::run_scenario(spec);
  };
  const chaos::ScenarioResult a = run();
  const chaos::ScenarioResult b = run();
  EXPECT_EQ(a.replay_digest, b.replay_digest);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.counts.injected, b.counts.injected);
  EXPECT_EQ(a.counts.delivered, b.counts.delivered);
  EXPECT_TRUE(a.violations.empty()) << a.violations.front();
  EXPECT_TRUE(b.violations.empty());
}

// A fully in-band AM workload (no cross-thread shared memory: peers are
// found via map_raw's static rendezvous — the first endpoint on every host
// gets EpId 1 — and completion is signalled with "done" messages), safe to
// run on threaded shards.
struct WorkloadOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t handled = 0;
};

WorkloadOutcome run_threaded_workload(int shards, bool threads, int clients,
                                      int requests) {
  cluster::ClusterConfig cfg = cluster::NowConfig(1 + clients);
  cfg.topology = cluster::ClusterConfig::Topology::kFatTree;
  cfg.hosts_per_leaf = 2;
  cfg.spines = 2;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  cluster::Cluster cl(cfg);

  constexpr std::uint64_t kTag = 0xABCD;
  constexpr std::uint32_t kWork = 1, kDone = 2, kReply = 3;
  auto handled = std::make_shared<std::uint64_t>(0);  // server-thread only

  cl.spawn_thread(0, "server", [=](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, kTag);
    int done = 0;
    ep->set_handler(kWork, [=](am::Endpoint&, const am::Message& m) {
      ++*handled;
      m.reply(kReply, {m.arg(0) * 2 + 1});
    });
    ep->set_handler(kDone, [&done](am::Endpoint&, const am::Message&) {
      ++done;
    });
    while (done < clients) {
      if (co_await ep->wait_events_for(t, am::kEventArrivals, 1 * sim::ms)) {
        co_await ep->poll(t, 32);
      }
    }
    while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
  });

  for (int c = 1; c <= clients; ++c) {
    cl.spawn_thread(c, "client", [=](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, kTag + c);
      ep->map_raw(0, /*node=*/0, /*ep=*/1, kTag);
      int replies = 0;
      ep->set_handler(kReply, [&replies](am::Endpoint&, const am::Message&) {
        ++replies;
      });
      for (int i = 0; i < requests; ++i) {
        co_await ep->request(t, 0, kWork, static_cast<std::uint32_t>(i));
      }
      while (replies < requests) co_await ep->poll(t, 16);
      co_await ep->request(t, 0, kDone, 0);
      while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
    });
  }

  cl.run_to_completion();
  WorkloadOutcome out;
  out.digest = cl.replay_digest();
  out.events = cl.events_processed();
  out.handled = *handled;
  return out;
}

TEST(ShardDeterminism, ThreadedRunsAreReproducible) {
  const WorkloadOutcome a = run_threaded_workload(2, true, 6, 40);
  const WorkloadOutcome b = run_threaded_workload(2, true, 6, 40);
  EXPECT_EQ(a.handled, static_cast<std::uint64_t>(6 * 40));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.handled, b.handled);
}

// The threaded scheduler executes the same window schedule as the
// sequential one, so their digests must match exactly — worker threads can
// change wall-clock interleaving but never simulated outcomes.
TEST(ShardDeterminism, ThreadedMatchesSequentialSchedule) {
  const WorkloadOutcome threaded = run_threaded_workload(4, true, 6, 25);
  const WorkloadOutcome sequential = run_threaded_workload(4, false, 6, 25);
  EXPECT_EQ(threaded.digest, sequential.digest);
  EXPECT_EQ(threaded.events, sequential.events);
  EXPECT_EQ(threaded.handled, sequential.handled);
}

// The request/reply shape of bench_engine's sharded_1k entries, scaled
// down: clients on the far end of a fat-tree each fire pipelined requests
// at a server on a distant leaf, so most messages cross shards. All state
// is local to host coroutines, so it is safe on threaded shards.
struct SpanRun {
  std::uint64_t digest = 0;
  std::uint64_t sent = 0;
  std::uint64_t tracked = 0;
  std::uint64_t completed = 0;
  std::size_t inflight = 0;
  std::vector<obs::SpanTrace> traces;
};

SpanRun run_span_workload(int shards, bool threads, bool spans) {
  constexpr int kHosts = 256;
  constexpr int kPairs = kHosts / 2;
  constexpr int kRequests = 20;
  cluster::ClusterConfig cfg = cluster::NowConfig(kHosts);
  cfg.topology = cluster::ClusterConfig::Topology::kFatTree;
  cfg.hosts_per_leaf = 8;
  cfg.spines = 4;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  cluster::Cluster cl(cfg);
  if (spans) {
    for (int s = 0; s < cl.shards(); ++s) {
      cl.shard_group().engine(s).spans().set_sample_interval(1);
    }
  }

  constexpr std::uint64_t kKey = 0x5a000;
  for (int p = 0; p < kPairs; ++p) {
    const int server_node = p;
    const int client_node = kHosts - 1 - p;
    cl.spawn_thread(server_node, "s", [=](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, kKey + server_node);
      int got = 0;
      ep->set_handler(1, [&got](am::Endpoint&, const am::Message& m) {
        ++got;
        m.reply(2, {m.arg(0)});
      });
      while (got < kRequests) {
        if (co_await ep->wait_events_for(t, am::kEventArrivals, 1 * sim::ms)) {
          co_await ep->poll(t, 32);
        }
      }
      while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
    });
    cl.spawn_thread(client_node, "c", [=](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, 2 * kKey + client_node);
      ep->map_raw(0, server_node, /*ep=*/1, kKey + server_node);
      for (int i = 0; i < kRequests; ++i) co_await ep->request(t, 0, 1, 1);
      while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
    });
  }
  cl.run_to_completion();

  SpanRun out;
  out.digest = cl.replay_digest();
  out.sent = 2 * static_cast<std::uint64_t>(kPairs) * kRequests;
  for (int s = 0; s < cl.shards(); ++s) {
    const obs::SpanRecorder& rec = cl.shard_group().engine(s).spans();
    out.tracked += rec.tracked();
    out.completed += rec.completed();
    out.inflight += rec.inflight();
  }
  out.traces = cl.collect_spans();
  return out;
}

// A flight lives in its sender's shard; the receiver's stamps cross back
// at the window barrier. Every traced message must complete at every shard
// count, and tracing must not perturb the simulated schedule.
TEST(ShardSpans, CompleteAtEveryShardCount) {
  struct Config {
    int shards;
    bool threads;
  };
  std::vector<obs::SpanTrace> threaded4, sequential4;
  for (const Config c : {Config{1, false}, Config{2, true}, Config{2, false},
                         Config{4, true}, Config{4, false}}) {
    SCOPED_TRACE(testing::Message() << c.shards << " shards, "
                                    << (c.threads ? "threaded" : "sequential"));
    SpanRun on = run_span_workload(c.shards, c.threads, true);
    const SpanRun off = run_span_workload(c.shards, c.threads, false);
    EXPECT_EQ(on.tracked, on.sent);
    EXPECT_EQ(on.completed, on.sent);
    EXPECT_EQ(on.inflight, 0u);
    ASSERT_EQ(on.traces.size(), on.sent);
    for (const obs::SpanTrace& t : on.traces) {
      ASSERT_TRUE(t.complete) << t.node << "." << t.ep << " #" << t.msg_id;
      for (unsigned p = 0; p < obs::kSpanPointCount; ++p) {
        ASSERT_GE(t.at[p], 0) << "boundary " << p << " of " << t.node << "."
                              << t.ep << " #" << t.msg_id;
      }
    }
    EXPECT_EQ(on.digest, off.digest);
    EXPECT_TRUE(off.traces.empty());
    if (c.shards == 4) (c.threads ? threaded4 : sequential4) = on.traces;
  }
  EXPECT_TRUE(threaded4 == sequential4);
}

TEST(ShardScale, ThousandHostSmoke) {
  cluster::ClusterConfig cfg = cluster::NowConfig(1000);
  cfg.topology = cluster::ClusterConfig::Topology::kFatTree;
  cfg.hosts_per_leaf = 8;
  cfg.spines = 4;
  cfg.shards = 4;
  cfg.shard_threads = true;
  cluster::Cluster cl(cfg);
  EXPECT_EQ(cl.fabric().num_hosts(), 1000);
  EXPECT_EQ(cl.shards(), 4);

  // A cross-leaf (and cross-shard) ping between distant hosts, plus the
  // idle bring-up of the other 998 NICs.
  constexpr std::uint64_t kTag = 0x517E;
  auto got = std::make_shared<std::uint64_t>(0);
  cl.spawn_thread(999, "server", [=](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, kTag);
    ep->set_handler(1, [=](am::Endpoint&, const am::Message& m) {
      ++*got;
      m.reply(2, {m.arg(0)});
    });
    while (*got < 50) {
      if (co_await ep->wait_events_for(t, am::kEventArrivals, 1 * sim::ms)) {
        co_await ep->poll(t, 32);
      }
    }
    while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
  });
  cl.spawn_thread(0, "client", [=](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, kTag + 1);
    ep->map_raw(0, /*node=*/999, /*ep=*/1, kTag);
    for (int i = 0; i < 50; ++i) co_await ep->request(t, 0, 1, 1);
    while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
  });
  cl.run_to_completion();
  EXPECT_EQ(*got, 50u);
  EXPECT_GT(cl.shard_group().router().crossings(), 0u);
}

}  // namespace
