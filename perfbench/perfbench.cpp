// End-to-end benchmark program for the simulator (see README.md beside this
// file). It runs one of three paper-shaped workloads on the serial engine,
// repeats it until the time budget is spent, and prints one JSON line:
//
//   fig6_rpc_small  one server, 16 clients streaming 16-byte requests, the
//                   server first as OneVN and then as ST with 8 NIC frames
//   fig5_alltoall   NPB FT and IS transposes at 32 ranks on the fat-tree
//   chaos_matrix    the six standard chaos scenarios over a run of seeds
//
// Every workload is driven from this file through the public layer APIs
// (cluster::Cluster, am::Endpoint, apps::Par, chaos::ScenarioRun), so the
// program can time each cluster's construction, its endpoint bring-up and
// its run from outside, and read the cluster's metric registry afterwards.
//
// Usage: vnet_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                       [--out DIR]
//        vnet_perfbench --crosscheck
//
// --trace 1 alternates untraced and fully span-traced repetitions and
// reports per-layer metrics; --trace 0 reports the end-to-end ones. Host
// times are reported scaled to a reference host speed, which a calibration
// kernel timed throughout the run measures (see calibrate()).
// --crosscheck runs fig5_alltoall at identity placement and compares its
// simulated kernel times with apps::run_npb.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "am/endpoint.hpp"
#include "apps/npb.hpp"
#include "apps/parallel.hpp"
#include "chaos/scenario.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"

namespace vnet::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------ measurement

/// Registry counters summed over every cluster of a repetition, as
/// (key, name prefix, name suffix) for obs::Snapshot::sum_counters.
struct CounterSum {
  const char* key;
  const char* prefix;
  const char* suffix;
};
constexpr CounterSum kCounterSums[] = {
    {"msgs", "host.", ".messages_handled"},
    {"events", "sim.events_processed", ""},
    {"arena_fallbacks", "sim.arena.closure_fallbacks", ""},
    {"send_stalls", "host.", ".send_stalls"},
    {"wait_wakeups", "host.", ".wait_wakeups"},
    {"credit_replies", "host.", ".credit_replies_sent"},
    {"remaps", "host.", ".driver.remaps"},
    {"write_faults", "host.", ".driver.write_faults"},
    {"proxy_faults", "host.", ".driver.proxy_faults"},
    {"fw_wakeups", "host.", ".nic.firmware_wakeups"},
    {"nacks", "host.", ".nic.nacks_sent"},
    {"acks", "host.", ".nic.acks_sent"},
    {"acks_piggybacked", "host.", ".nic.acks_piggybacked"},
    {"retransmissions", "host.", ".nic.retransmissions"},
    {"timeouts", "host.", ".nic.timeouts"},
    {"returned_to_sender", "host.", ".nic.returned_to_sender"},
    {"packets", "fabric.link.", ".packets_tx"},
    {"bytes", "fabric.link.", ".bytes_tx"},
    {"drops", "fabric.link.", ".drops_down"},
    {"drops", "fabric.link.", ".drops_fault"},
    {"span_tracked", "obs.span.tracked", ""},
    {"span_completed", "obs.span.completed", ""},
};

/// What one repetition of a workload measured and produced.
struct Rep {
  // Host seconds, summed over the repetition's clusters.
  double build_s = 0;    ///< Cluster constructors
  double bringup_s = 0;  ///< endpoint create/map until the first message
  double run_s = 0;      ///< first message to the end of the workload
  std::uint64_t run_events = 0;
  double sim_s = 0;  ///< simulated seconds, summed over clusters
  std::vector<double> snapshot_us;
  std::map<std::string, double> sums;  ///< kCounterSums, by key
  double queue_slots_peak = 0;
  std::vector<obs::SpanTrace> spans;  ///< committed spans (traced reps)

  /// Canonical text of the simulated outputs a user reads; equal for equal
  /// seeds, and never includes the replay digest.
  std::string fingerprint;
  std::uint64_t attempted = 0;  ///< requests issued
  std::uint64_t failed = 0;     ///< unanswered, unfinished, or in a run
                                ///< that broke an invariant

  double comm_share = 0;  // fig5_alltoall
  std::uint64_t violations = 0, unfinished = 0;  // chaos_matrix
  double recovery_ms_p50 = 0;

  double sum(const char* key) const {
    auto it = sums.find(key);
    return it == sums.end() ? 0 : it->second;
  }
};

/// Steps `eng` until the workload is ready to send its first message
/// (`ready`), charging the host time to bring-up. `may_step` bounds how far
/// it goes.
void bring_up(sim::Engine& eng, Rep& rep, const std::function<bool()>& ready,
              const std::function<bool()>& may_step) {
  const auto t0 = Clock::now();
  while (!ready() && eng.has_events() && may_step()) eng.step();
  rep.bringup_s += since(t0);
}

/// Brings `cl` up until `ready`, then runs it until every thread is done.
void run_cluster(cluster::Cluster& cl, Rep& rep,
                 const std::function<bool()>& ready) {
  bring_up(cl.engine(), rep, ready, [] { return true; });
  const auto t0 = Clock::now();
  const std::uint64_t ev0 = cl.events_processed();
  cl.run_to_completion();
  rep.run_s += since(t0);
  rep.run_events += cl.events_processed() - ev0;
}

/// Folds a finished cluster's registry into the repetition: a timed
/// scalars-only snapshot (what the stall watchdog takes every window),
/// counter sums, the queue's peak slot count and, when traced, its spans.
void absorb(sim::Engine& eng, Rep& rep) {
  constexpr int kSnapshots = 5;
  std::vector<double> us;
  obs::Snapshot snap;
  for (int i = 0; i < kSnapshots; ++i) {
    const auto t0 = Clock::now();
    snap = eng.metrics().snapshot_scalars();
    us.push_back(since(t0) * 1e6);
  }
  rep.snapshot_us.push_back(median(us));
  for (const CounterSum& c : kCounterSums) {
    rep.sums[c.key] +=
        static_cast<double>(snap.sum_counters(c.prefix, c.suffix));
  }
  rep.queue_slots_peak =
      std::max(rep.queue_slots_peak, snap.gauge("sim.queue.slots"));
  if (eng.spans().enabled()) {
    std::vector<obs::SpanTrace> t = eng.spans().collect();
    rep.spans.insert(rep.spans.end(), t.begin(), t.end());
  }
}

// ------------------------------------------------------------ host speed

/// The calibration kernel's host time on the reference host. Host times are
/// reported scaled to that host: raw × kCalibrationRefS / mean calibration
/// time of the run.
constexpr double kCalibrationRefS = 0.05;
/// Host seconds between calibration samples: the kernel costs about a
/// tenth of the run.
constexpr double kCalibrationEveryS = 0.5;

/// Keeps the calibration kernel's result alive past the optimizer.
volatile std::uint64_t calibration_sink;

/// Times a fixed kernel of the kind of work the simulator does: a binary
/// heap, an ordered map and small heap allocations. The speed of shared
/// hosts drifts by up to 1.4x over minutes, and this kernel follows the
/// simulator's host time far better than an arithmetic loop or a pointer
/// chase (README.md, "Noise"). It uses no simulator code, so a change to
/// the simulator cannot move it.
double calibrate() {
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    std::priority_queue<std::uint64_t> heap;
    std::map<std::uint64_t, std::string> index;
    std::uint64_t x = round * 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push(x >> 34);
      index.emplace(x & 0x3fffffff, std::string(24, 'x'));
      if (i % 3 == 0) {
        acc += heap.top();
        heap.pop();
      }
    }
    for (; !heap.empty(); heap.pop()) acc += heap.top();
    acc += index.size();
  }
  calibration_sink = acc;
  return since(t0);
}

/// Calibration samples of one run. Workloads call maybe_sample() before
/// each cluster they build, outside every timed phase, so the samples
/// spread evenly over the run.
struct HostSpeed {
  std::vector<double> samples;
  Clock::time_point last;

  void maybe_sample() {
    if (!samples.empty() && since(last) < kCalibrationEveryS) return;
    samples.push_back(calibrate());
    last = Clock::now();
  }
  double mean() const {
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  }
  double scale() const { return kCalibrationRefS / mean(); }
};
HostSpeed host_speed;

/// Nearest-rank quantile of exact samples.
sim::Duration exact_quantile(std::vector<sim::Duration>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// ------------------------------------------------------- fig6_rpc_small

// The load is apps::run_contention's (bench_fig6_small): 16 clients, 8
// server frames, and ContentionParams' default 50 ms warm-up and 200 ms
// window.
constexpr int kFig6Clients = 16;
constexpr int kFig6Frames = 8;
constexpr sim::Duration kFig6Warmup = 50 * sim::ms;
constexpr sim::Duration kFig6Window = 200 * sim::ms;
constexpr std::uint8_t kEcho = 1;
constexpr std::uint8_t kEchoReply = 2;

/// One client's traffic shape, in the §6.4 burst model of ContentionParams:
/// requests per burst, the compute gap between bursts, and when it starts.
struct ClientPlan {
  int burst = 0;
  sim::Duration gap = 0;
  sim::Duration start = 0;
};

/// Seeded perturbations of bench_fig6_small's streaming clients that keep
/// its offered load. A burst is one to two credit windows
/// (NicConfig::recv_request_depth = 32), so every burst runs the client out
/// of credits as streaming does. A gap is at most 100 us, a few percent of
/// the several-millisecond credit-bound RTT at 16 clients, so the server's
/// queue never drains. A start offset is at most 3 ms, the per-client
/// binding allowance in bench_fig6_small's warm-up.
std::vector<ClientPlan> fig6_inputs(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<ClientPlan> plans(kFig6Clients);
  for (ClientPlan& p : plans) {
    p.burst = static_cast<int>(rng.range(32, 64));
    p.gap = rng.range(0, 100) * sim::us;
    p.start = rng.range(0, 3000) * sim::us;
  }
  return plans;
}

std::string fig6_inputs_text(const std::vector<ClientPlan>& plans) {
  std::string s;
  for (const ClientPlan& p : plans) {
    s += std::to_string(p.burst) + "/" + std::to_string(p.gap) + "/" +
         std::to_string(p.start) + " ";
  }
  return s;
}

struct Fig6State {
  Fig6State()
      : names(kFig6Clients),
        sent(kFig6Clients, 0),
        replies(kFig6Clients, 0),
        window_replies(kFig6Clients, 0) {}

  std::vector<am::Name> names;  ///< [client] -> its server endpoint
  std::vector<std::uint64_t> sent, replies, window_replies;
  std::vector<sim::Duration> rtt;  ///< exact RTTs of in-window replies
  int mapped = 0;                  ///< clients that mapped their server
  bool window_open = false;
  bool clients_stop = false;
  bool servers_stop = false;

  bool names_ready() const {
    return std::all_of(names.begin(), names.end(),
                       [](const am::Name& n) { return n.valid(); });
  }
};

/// Closed-loop client: a burst of requests, each sent as soon as the credit
/// window allows, then a compute gap; stops at the window's end and waits
/// for every outstanding reply.
sim::Task<> fig6_client(host::HostThread& t, Fig6State& st, int id,
                        ClientPlan plan) {
  const auto i = static_cast<std::size_t>(id);
  auto ep = co_await am::Endpoint::create(t, 0xc0 + id);
  ep->set_handler(kEchoReply, [&st, &t, i](am::Endpoint&,
                                           const am::Message& m) {
    ++st.replies[i];
    if (st.window_open) {
      ++st.window_replies[i];
      st.rtt.push_back(t.engine().now() - static_cast<sim::Time>(m.arg(0)));
    }
  });
  while (!st.names_ready()) co_await t.sleep(50 * sim::us);
  ep->map(0, st.names[i]);
  ++st.mapped;
  co_await t.sleep(plan.start);
  int in_burst = 0;
  while (!st.clients_stop) {
    co_await ep->request(t, 0, kEcho,
                         static_cast<std::uint64_t>(t.engine().now()));
    ++st.sent[i];
    co_await ep->poll(t, 8);
    if (++in_burst >= plan.burst) {
      in_burst = 0;
      co_await t.sleep(plan.gap);
    }
  }
  const sim::Time deadline = t.engine().now() + 100 * sim::ms;
  while (st.replies[i] < st.sent[i] && t.engine().now() < deadline) {
    co_await ep->poll(t, 16);
    co_await t.compute(500);
  }
}

/// The server: OneVN serves every client from one endpoint; ST gives each
/// client its own endpoint and polls them round-robin from one thread.
sim::Task<> fig6_server(host::HostThread& t, Fig6State& st, bool one_vn,
                        std::vector<std::unique_ptr<am::Endpoint>>& eps) {
  const int endpoints = one_vn ? 1 : kFig6Clients;
  for (int e = 0; e < endpoints; ++e) {
    auto ep = co_await am::Endpoint::create(t, 0x100 + e);
    ep->set_handler(kEcho, [](am::Endpoint&, const am::Message& m) {
      m.reply(kEchoReply, {m.arg(0)});
    });
    eps.push_back(std::move(ep));
  }
  for (int c = 0; c < kFig6Clients; ++c) {
    st.names[static_cast<std::size_t>(c)] =
        eps[one_vn ? 0 : static_cast<std::size_t>(c)]->name();
  }
  while (!st.servers_stop) {
    std::size_t handled = 0;
    for (auto& ep : eps) handled += co_await ep->poll(t, 32);
    if (handled == 0) co_await t.compute(200);
  }
}

void run_fig6_server_mode(bool one_vn, const std::vector<ClientPlan>& plans,
                          bool traced, Rep& rep) {
  cluster::ClusterConfig cfg = cluster::NowConfig(kFig6Clients + 1);
  cfg.nic.endpoint_frames = kFig6Frames;
  host_speed.maybe_sample();
  const auto t0 = Clock::now();
  cluster::Cluster cl(cfg);
  rep.build_s += since(t0);
  Fig6State st;
  std::vector<std::unique_ptr<am::Endpoint>> server_eps;
  sim::Engine& eng = cl.engine();
  if (traced) eng.spans().set_sample_interval(1);

  cl.spawn_thread(0, "server",
                  [&st, &server_eps, one_vn](host::HostThread& t)
                      -> sim::Task<> {
                    co_await fig6_server(t, st, one_vn, server_eps);
                  });
  for (int c = 0; c < kFig6Clients; ++c) {
    const ClientPlan plan = plans[static_cast<std::size_t>(c)];
    cl.spawn_thread(c + 1, "client" + std::to_string(c),
                    [&st, c, plan](host::HostThread& t) -> sim::Task<> {
                      co_await fig6_client(t, st, c, plan);
                    });
  }
  eng.at(kFig6Warmup, [&st] { st.window_open = true; });
  eng.at(kFig6Warmup + kFig6Window, [&st] {
    st.window_open = false;
    st.clients_stop = true;
  });
  eng.at(kFig6Warmup + kFig6Window + 120 * sim::ms,
         [&st] { st.servers_stop = true; });

  // Bring-up ends once every client has mapped its server endpoint; the
  // seeded start offsets that follow are traffic shape, not set-up.
  run_cluster(cl, rep, [&st] { return st.mapped == kFig6Clients; });
  rep.sim_s += sim::to_sec(cl.now());
  absorb(eng, rep);

  std::string fp = one_vn ? "OneVN" : "ST-8";
  fp += " replies";
  for (int c = 0; c < kFig6Clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    fp += " " + std::to_string(st.window_replies[i]);
    rep.attempted += st.sent[i];
    rep.failed += st.sent[i] - std::min(st.sent[i], st.replies[i]);
  }
  fp += " rtt_p50_ns " + std::to_string(exact_quantile(st.rtt, 0.50));
  fp += " rtt_p99_ns " + std::to_string(exact_quantile(st.rtt, 0.99));
  rep.fingerprint += fp + "\n";
}

Rep run_fig6(std::uint64_t seed, bool traced) {
  const std::vector<ClientPlan> plans = fig6_inputs(seed);
  Rep rep;
  run_fig6_server_mode(/*one_vn=*/true, plans, traced, rep);
  run_fig6_server_mode(/*one_vn=*/false, plans, traced, rep);
  return rep;
}

// -------------------------------------------------------- fig5_alltoall

constexpr int kFig5Ranks = 32;

/// The FT and IS skeletons of apps/npb.cpp (Class A, truncated iterations):
/// per iteration a compute charge, then two 128e6/p² transposes (FT) or an
/// allreduce and one 64e6/p² transpose (IS).
struct Fig5Kernel {
  const char* name;
  double serial_sec_per_iter;
  int iters;
  double cache_bonus;
  double transpose_bytes;
  bool two_transposes;
};
constexpr Fig5Kernel kFig5Kernels[] = {
    {"FT", 14.2, 4, 0.015, 128e6, true},
    {"IS", 4.2, 5, 0.0, 64e6, false},
};

sim::Task<> fig5_kernel(apps::Par& par, const Fig5Kernel& k,
                        double cpu_speedup) {
  const int p = par.size();
  const double eff = 1.0 + k.cache_bonus * std::log2(static_cast<double>(p));
  const auto compute = static_cast<sim::Duration>(
      k.serial_sec_per_iter / (p * eff * cpu_speedup) * 1e9);
  const auto bytes = static_cast<std::uint32_t>(
      k.transpose_bytes / (static_cast<double>(p) * p));
  co_await par.barrier();
  for (int it = 0; it < k.iters; ++it) {
    co_await par.compute(compute);
    if (k.two_transposes) {
      co_await par.alltoall(bytes);
      co_await par.alltoall(bytes);
    } else {
      co_await par.allreduce_sum(static_cast<double>(par.rank()));
      co_await par.alltoall(bytes);
    }
  }
  co_await par.allreduce_sum(static_cast<double>(par.rank()));
  co_await par.barrier();
}

/// Rank -> node: a seeded shuffle of the 32 hosts.
std::vector<int> fig5_placement(std::uint64_t seed) {
  std::vector<int> node(kFig5Ranks);
  std::iota(node.begin(), node.end(), 0);
  sim::Rng rng(seed);
  for (std::size_t i = node.size() - 1; i > 0; --i) {
    std::swap(node[i], node[rng.below(i + 1)]);
  }
  return node;
}

/// Runs one kernel; returns its simulated seconds (the last rank's finish).
double run_fig5_kernel(const Fig5Kernel& k, const std::vector<int>& placement,
                       bool traced, Rep& rep) {
  // apps::run_npb's cluster: NowConfig(40)'s fat-tree shape at 32 hosts.
  cluster::ClusterConfig cfg = cluster::NowConfig(40);
  cfg.nodes = kFig5Ranks;
  host_speed.maybe_sample();
  const auto t0 = Clock::now();
  cluster::Cluster cl(cfg);
  rep.build_s += since(t0);
  sim::Engine& eng = cl.engine();
  if (traced) eng.spans().set_sample_interval(1);

  struct State {
    bool started = false;
    sim::Time done_at = 0;
    double comm_s = 0;
  } st;
  auto job = std::make_shared<apps::JobState>(kFig5Ranks);
  const double speedup = cfg.cpu_speedup;
  for (int r = 0; r < kFig5Ranks; ++r) {
    cl.spawn_thread(placement[static_cast<std::size_t>(r)],
                    "rank" + std::to_string(r),
                    [job, r, &st, &k, speedup](host::HostThread& t)
                        -> sim::Task<> {
                      apps::Par par(t, job, r, kFig5Ranks);
                      co_await par.init();
                      st.started = true;
                      co_await fig5_kernel(par, k, speedup);
                      st.done_at = std::max(st.done_at, t.engine().now());
                      st.comm_s += sim::to_sec(par.comm_time());
                      ++job->finished;
                    });
  }
  run_cluster(cl, rep, [&st] { return st.started; });
  const double sim_s = sim::to_sec(st.done_at);
  rep.sim_s += sim_s;
  if (job->finished != kFig5Ranks) rep.failed += 1;
  rep.comm_share += st.comm_s / kFig5Ranks / sim_s /
                    static_cast<double>(std::size(kFig5Kernels));
  absorb(eng, rep);
  return sim_s;
}

Rep run_fig5(const std::vector<int>& placement, bool traced) {
  Rep rep;
  for (const Fig5Kernel& k : kFig5Kernels) {
    const double sim_s = run_fig5_kernel(k, placement, traced, rep);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s sim_ns %lld\n", k.name,
                  static_cast<long long>(std::llround(sim_s * 1e9)));
    rep.fingerprint += buf;
  }
  // Every rank sends and receives every transpose; a kernel in which some
  // rank never finished fails all of its messages.
  rep.attempted = static_cast<std::uint64_t>(rep.sum("msgs"));
  if (rep.failed > 0) rep.failed = rep.attempted;
  return rep;
}

std::string fig5_inputs_text(const std::vector<int>& placement) {
  std::string s;
  for (int n : placement) s += std::to_string(n) + " ";
  return s;
}

// --------------------------------------------------------- chaos_matrix

constexpr int kChaosSeeds = 20;

Rep run_chaos(std::uint64_t seed, bool traced) {
  Rep rep;
  std::vector<double> recovery_ms;
  for (const std::string& name : chaos::standard_scenario_names()) {
    for (int s = 0; s < kChaosSeeds; ++s) {
      chaos::ScenarioSpec spec =
          chaos::standard_scenario(name, seed + static_cast<std::uint64_t>(s));
      // Clients follow §3.2's failover recipe: a request that comes back
      // undeliverable, or is still unanswered at the deadline because a
      // fault returned its reply, is re-issued to the replica. Without it a
      // few cells (the chaos scenario at seed 37) leave a request unanswered.
      spec.failover = true;
      host_speed.maybe_sample();
      const auto t0 = Clock::now();
      chaos::ScenarioRun run(spec);
      rep.build_s += since(t0);
      sim::Engine& eng = run.engine();
      if (traced) eng.spans().set_sample_interval(1);

      // Bring-up ends when the first client (node 3; the segment driver
      // numbers endpoints from 1) sends. Never step past the last instant
      // before the first fault, so the fault timeline replays exactly as in
      // a straight-through run.
      const obs::Counter first_request =
          eng.metrics().counter("host.3.ep.1.requests_sent");
      const chaos::FaultPlan& plan = run.default_plan();
      const bool unbounded = plan.actions().empty();
      const sim::Time limit = run.checkpoint_for(plan);
      bring_up(
          eng, rep, [&] { return first_request.value() > 0; },
          [&] { return unbounded || eng.next_event_time() <= limit; });
      if (first_request.value() == 0) {
        // Would charge workload time to bring-up: the metric is meaningless.
        std::fprintf(stderr, "%s seed %llu: no request before the first "
                     "fault at %lld ns\n", name.c_str(),
                     static_cast<unsigned long long>(spec.seed),
                     static_cast<long long>(limit));
        std::exit(1);
      }

      const auto t1 = Clock::now();
      const std::uint64_t ev0 = eng.events_processed();
      const chaos::ScenarioResult r = run.finish();
      rep.run_s += since(t1);
      rep.run_events += eng.events_processed() - ev0;
      rep.sim_s += sim::to_sec(r.total_time);
      absorb(eng, rep);

      const auto& c = r.counts;
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "%s %llu injected %llu delivered %llu returned %llu "
                    "dup %llu both %llu unresolved %llu orphan %llu\n",
                    r.name.c_str(), static_cast<unsigned long long>(r.seed),
                    static_cast<unsigned long long>(c.injected),
                    static_cast<unsigned long long>(c.delivered),
                    static_cast<unsigned long long>(c.returned),
                    static_cast<unsigned long long>(c.duplicate_deliveries),
                    static_cast<unsigned long long>(c.delivered_and_returned),
                    static_cast<unsigned long long>(c.unresolved),
                    static_cast<unsigned long long>(c.orphan_events));
      rep.fingerprint += buf;
      // Every request of a scenario fails when the ledger finds a broken
      // invariant; otherwise each request left without a terminal state at
      // the client (r.unfinished) fails.
      rep.attempted += r.requests_issued;
      rep.failed += chaos::verdict_ok(r) ? r.unfinished : r.requests_issued;
      rep.violations += r.violations.size();
      rep.unfinished += r.unfinished;
      recovery_ms.push_back(sim::to_msec(r.recovery_time));
    }
  }
  rep.recovery_ms_p50 = median(recovery_ms);
  return rep;
}

std::string chaos_inputs_text(std::uint64_t seed) {
  std::string s;
  for (const std::string& name : chaos::standard_scenario_names()) {
    s += name + " seeds " + std::to_string(seed) + ".." +
         std::to_string(seed + kChaosSeeds - 1) + " ";
  }
  return s;
}

// --------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The end-to-end metrics of untraced repetitions, with host times
/// multiplied by `host_scale` (see calibrate()). The message rate is taken
/// over the whole run rather than as a median of repetitions, so that it
/// blends host-speed changes within the run as the calibration mean does.
/// peak_rss_mb is measured by the launcher (perfbench/run.py), which owns
/// the memory cap.
std::vector<Metric> end_to_end(const std::vector<Rep>& reps,
                               double host_scale, std::uint64_t attempted,
                               std::uint64_t failed) {
  double msgs = 0, run_s = 0;
  std::vector<double> setup;
  for (const Rep& r : reps) {
    msgs += r.sum("msgs");
    run_s += r.run_s;
    setup.push_back(r.build_s + r.bringup_s);
  }
  return {
      {"msgs_per_s", ratio(msgs, run_s * host_scale), "1/s"},
      {"setup_s", median(setup) * host_scale, "s"},
      {"failed_frac",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
}

std::vector<Metric> per_layer(const std::vector<Rep>& plain,
                              const std::vector<Rep>& traced,
                              const std::vector<double>& overhead,
                              double host_scale) {
  // Deterministic counts come from the first untraced repetition; host
  // times are medians over all of them, and ns_per_event their total, each
  // multiplied by host_scale.
  const Rep& r = plain.front();
  const double msgs = r.sum("msgs");
  double run_s = 0, run_events = 0;
  std::vector<double> build, bringup, snapshot_us;
  for (const Rep& p : plain) {
    run_s += p.run_s;
    run_events += static_cast<double>(p.run_events);
    build.push_back(p.build_s);
    bringup.push_back(p.bringup_s);
    snapshot_us.insert(snapshot_us.end(), p.snapshot_us.begin(),
                       p.snapshot_us.end());
  }
  double tracked = 0, completed = 0;
  for (const Rep& t : traced) {
    tracked += t.sum("span_tracked");
    completed += t.sum("span_completed");
  }
  std::vector<Metric> m = {
      {"sim.events_per_msg", ratio(r.sum("events"), msgs), "events/msg"},
      {"sim.ns_per_event", ratio(run_s * 1e9 * host_scale, run_events), "ns"},
      {"sim.arena_fallbacks", r.sum("arena_fallbacks"), "count"},
      {"sim.queue_slots_peak", r.queue_slots_peak, "slots"},
      {"cluster.build_s", median(build) * host_scale, "s"},
      {"am.bringup_s", median(bringup) * host_scale, "s"},
      {"am.send_stalls_per_msg", ratio(r.sum("send_stalls"), msgs), "1/msg"},
      {"am.wait_wakeups_per_msg", ratio(r.sum("wait_wakeups"), msgs),
       "1/msg"},
      {"am.credit_replies_per_msg", ratio(r.sum("credit_replies"), msgs),
       "1/msg"},
      {"host.remaps_per_sim_s", ratio(r.sum("remaps"), r.sim_s), "1/sim_s"},
      {"host.write_faults", r.sum("write_faults"), "count"},
      {"host.proxy_faults", r.sum("proxy_faults"), "count"},
      {"lanai.wakeups_per_msg", ratio(r.sum("fw_wakeups"), msgs), "1/msg"},
      {"lanai.nacks_per_msg", ratio(r.sum("nacks"), msgs), "1/msg"},
      {"lanai.acks_piggybacked_share",
       ratio(r.sum("acks_piggybacked"), r.sum("acks")), "ratio"},
      {"lanai.retransmissions", r.sum("retransmissions"), "count"},
      {"lanai.timeouts", r.sum("timeouts"), "count"},
      {"lanai.returned_to_sender", r.sum("returned_to_sender"), "count"},
      {"myrinet.packets_per_msg", ratio(r.sum("packets"), msgs), "pkts/msg"},
      {"myrinet.bytes_per_msg", ratio(r.sum("bytes"), msgs), "B/msg"},
      {"myrinet.drops", r.sum("drops"), "count"},
      {"apps.comm_share", r.comm_share, "ratio"},
      {"chaos.violations", static_cast<double>(r.violations), "count"},
      {"chaos.unfinished", static_cast<double>(r.unfinished), "count"},
      {"chaos.recovery_ms_p50", r.recovery_ms_p50, "sim_ms"},
      {"obs.snapshot_us", median(snapshot_us) * host_scale, "us"},
      {"obs.trace_overhead", median(overhead), "x"},
      {"obs.span_completed_share", ratio(completed, tracked), "ratio"},
  };
  const obs::TailReport tail = obs::tail_report(traced.back().spans);
  for (unsigned s = 0; s < obs::kSpanStageCount; ++s) {
    const std::string stage = std::string("span.") + obs::span_stage_name(s);
    m.push_back({stage + ".p50_ns", tail.stages[s].p50_ns, "sim_ns"});
    m.push_back({stage + ".tail_ns", tail.stages[s].tail_ns, "sim_ns"});
  }
  return m;
}

/// The traced run's artifacts: every committed span as CSV, and the
/// differential tail report.
void write_trace_output(const std::string& dir, const std::string& workload,
                        const std::vector<obs::SpanTrace>& spans,
                        const std::string& tail_table) {
  std::ofstream csv(dir + "/" + workload + ".spans.csv");
  csv << "node,ep,msg_id";
  for (unsigned p = 0; p < obs::kSpanPointCount; ++p) csv << ",at" << p;
  csv << ",retransmits,wire_hops,returned,complete\n";
  for (const obs::SpanTrace& t : spans) {
    csv << t.node << ',' << t.ep << ',' << t.msg_id;
    for (std::int64_t at : t.at) csv << ',' << at;
    csv << ',' << t.retransmits << ',' << static_cast<int>(t.wire_hops) << ','
        << t.returned << ',' << t.complete << '\n';
  }
  std::ofstream(dir + "/" + workload + ".tail.txt") << tail_table;
}

int usage() {
  std::fprintf(stderr,
               "usage: vnet_perfbench --workload fig6_rpc_small|"
               "fig5_alltoall|chaos_matrix --seed N [--seconds S] "
               "[--trace 0|1] [--out DIR]\n"
               "       vnet_perfbench --crosscheck\n");
  return 2;
}

/// fig5_alltoall at identity placement must reproduce apps::run_npb.
int crosscheck() {
  std::vector<int> identity(kFig5Ranks);
  std::iota(identity.begin(), identity.end(), 0);
  Rep rep;
  bool ok = true;
  const apps::NpbKernel npb[] = {apps::NpbKernel::kFT, apps::NpbKernel::kIS};
  for (std::size_t i = 0; i < std::size(kFig5Kernels); ++i) {
    const double ours = run_fig5_kernel(kFig5Kernels[i], identity, false, rep);
    const double ref =
        apps::run_npb(cluster::NowConfig(40), npb[i], kFig5Ranks);
    std::printf("%s: fig5_alltoall %.9f s, apps::run_npb %.9f s\n",
                kFig5Kernels[i].name, ours, ref);
    ok = ok && ours == ref;
  }
  std::printf("%s\n", ok ? "crosscheck ok" : "crosscheck MISMATCH");
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--crosscheck") return crosscheck();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--out") {
      out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || (trace != 0 && trace != 1)) return usage();

  std::function<Rep(bool)> rep_fn;
  std::string inputs;
  if (workload == "fig6_rpc_small") {
    rep_fn = [seed](bool traced) { return run_fig6(seed, traced); };
    inputs = fig6_inputs_text(fig6_inputs(seed));
  } else if (workload == "fig5_alltoall") {
    const std::vector<int> placement = fig5_placement(seed);
    rep_fn = [placement](bool traced) { return run_fig5(placement, traced); };
    inputs = fig5_inputs_text(placement);
  } else if (workload == "chaos_matrix") {
    rep_fn = [seed](bool traced) { return run_chaos(seed, traced); };
    inputs = chaos_inputs_text(seed);
  } else {
    return usage();
  }

  // Repeat the identical workload until the budget is spent (at least
  // once). Every repetition, traced or not, must reproduce the first one's
  // simulated outputs; a repetition that does not fails all its requests.
  std::vector<Rep> plain, traced;
  std::vector<double> overhead;
  std::uint64_t attempted = 0, failed = 0;
  bool consistent = true;
  const auto start = Clock::now();
  auto account = [&](Rep& r) {
    attempted += r.attempted;
    const bool same = plain.empty() || r.fingerprint == plain[0].fingerprint;
    failed += same ? r.failed : r.attempted;
    consistent = consistent && same;
  };
  auto report = [](const char* kind, std::size_t i, const Rep& r) {
    std::printf("rep %zu %s: setup %.6f s, run %.6f s, %.1f msgs/s\n", i,
                kind, r.build_s + r.bringup_s, r.run_s,
                ratio(r.sum("msgs"), r.run_s));
  };
  do {
    Rep p = rep_fn(false);
    account(p);
    report("untraced", plain.size(), p);
    plain.push_back(std::move(p));
    if (trace == 1) {
      Rep t = rep_fn(true);
      account(t);
      report("traced", traced.size(), t);
      overhead.push_back(ratio(t.run_s, plain.back().run_s));
      if (!traced.empty()) traced.back().spans.clear();
      traced.push_back(std::move(t));
    }
  } while (since(start) < seconds);

  const double host_scale = host_speed.scale();
  const std::vector<Metric> metrics =
      trace == 1 ? per_layer(plain, traced, overhead, host_scale)
                 : end_to_end(plain, host_scale, attempted, failed);

  std::printf("workload %s seed %llu: %zu repetition(s), %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plain.size(),
              consistent ? "every repetition reproduced the fingerprint"
                         : "FINGERPRINT CHANGED BETWEEN REPETITIONS");
  std::printf("host speed: calibration kernel %.6f s (mean of %zu), "
              "reference %.3f s, host times scaled by %.4f\n",
              host_speed.mean(), host_speed.samples.size(), kCalibrationRefS,
              host_scale);
  std::printf("fingerprint:\n%s", plain[0].fingerprint.c_str());
  if (trace == 1) {
    const std::string table =
        obs::render_tail_report(obs::tail_report(traced.back().spans));
    char line[128];
    std::snprintf(line, sizeof(line),
                  "obs.trace_overhead %.4f x (traced / untraced run wall, "
                  "median of %zu pairs)\n",
                  median(overhead), overhead.size());
    std::printf("traced run, critical-path tail report:\n%s%s",
                table.c_str(), line);
    if (!out_dir.empty()) {
      write_trace_output(out_dir, workload, traced.back().spans,
                         table + line);
    }
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"reps\": %zu, "
              "\"consistent\": %s, \"fingerprint\": \"%s\", "
              "\"inputs\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plain.size(), consistent ? "true" : "false",
              hex(fnv1a(plain[0].fingerprint)).c_str(),
              hex(fnv1a(inputs)).c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace vnet::perfbench

int main(int argc, char** argv) { return vnet::perfbench::run(argc, argv); }
