#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace vnet::sim {

class ShardGroup;

/// The explicit timestamped message interface between shards.
///
/// Every cross-shard interaction — a packet crossing a link whose endpoints
/// live on different shards, a credit travelling back over such a link — is
/// a *record*: an absolute execution time plus a closure to run on the
/// destination shard's engine. Records are buffered in per-source outboxes
/// while a window executes (each outbox is written only by its owning
/// worker, so the hot path is lock-free) and drained at the next window
/// barrier, where they are merged in deterministic (when, src, seq) order
/// and pushed onto the destination engines.
///
/// Conservative lookahead contract: a record posted while the window
/// [T, T+L) executes must carry `when >= T+L` — the poster's shard can be
/// anywhere inside the window, so an earlier timestamp could land in a
/// neighbour's already-executed past. post() enforces this and throws
/// std::logic_error on violation (the shard_test suite proves the check
/// fires). The fabric guarantees the bound structurally: the cheapest
/// cross-shard effect is a credit return one link-propagation delay after
/// the posting instant, so L = min propagation over cross-shard links.
class ShardRouter {
 public:
  explicit ShardRouter(int shards);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Schedules `fn` on shard `dst`'s engine at absolute time `when`.
  /// Called by shard `src` while its window executes. Thread-safe across
  /// distinct `src` values; a given src posts from its own worker only.
  void post(int src, int dst, Time when, UniqueFunction fn);

  /// End of the window currently executing (0 = no window active; posts
  /// are then unconstrained — setup/teardown time).
  Time horizon() const { return horizon_; }
  void begin_window(Time end) { horizon_ = end; }
  void end_window() { horizon_ = 0; }

  /// Moves every buffered record onto its destination engine, merged in
  /// (when, src, seq) order so multi-shard delivery order is a pure
  /// function of the simulated schedule. Call only at a barrier (no worker
  /// inside a window).
  void deliver(ShardGroup& group);

  /// Total records routed since construction (sync-traffic observability).
  std::uint64_t crossings() const { return crossings_; }

 private:
  struct Record {
    Time when = 0;
    int dst = 0;
    std::uint64_t seq = 0;
    UniqueFunction fn;
  };
  // One outbox per source shard, padded so concurrent writers on adjacent
  // shards do not share a cache line.
  struct alignas(64) Outbox {
    std::vector<Record> records;
    std::uint64_t next_seq = 0;
  };

  std::vector<Outbox> outboxes_;
  Time horizon_ = 0;
  std::uint64_t crossings_ = 0;  // updated in deliver(), single-threaded
};

/// N engines advancing one conservative time window at a time (ROADMAP
/// item 2: parallel deterministic simulation).
///
/// Window algorithm (bounded-lag / YAWNS-style): at each barrier the group
/// drains the router, finds the global minimum next-event time m, and
/// executes [m, m+L) on every shard, where L is the lookahead. Any record
/// generated inside the window has `when >= m+L` (see ShardRouter), so it
/// is delivered at a later barrier — no shard ever executes past what its
/// neighbours could still inject.
///
/// Execution modes:
///  * size() == 1 (default): the serial engine, byte-identical to the
///    pre-shard code path — the determinism oracle;
///  * set_force_windows(true) at size() == 1: the same windowed loop on
///    one engine. The windows partition the identical (time, seq)-ordered
///    pop stream, so the replay digest still matches the serial engine
///    exactly — this is what `--shards 1` runs in the CI oracle gate;
///  * size() > 1, set_threaded(false): one OS thread executes the shards
///    of each window in index order. Deterministic, fork()-safe, and safe
///    for workloads whose host threads share plain memory across shards
///    (the chaos scenarios) — the schedule is identical to threaded mode;
///  * size() > 1, set_threaded(true): one worker thread per shard,
///    synchronized by a std::barrier whose completion step runs the
///    drain/advance logic. Same schedule as sequential mode, so fixed
///    (seed, shard count) gives run-to-run identical digests.
class ShardGroup {
 public:
  /// Shard 0 is seeded with `seed` itself (so a 1-shard group reproduces
  /// the serial engine bit-for-bit); shards 1.. get splitmix-derived seeds.
  ShardGroup(int shards, std::uint64_t seed, Duration lookahead);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int size() const { return static_cast<int>(engines_.size()); }
  Engine& engine(int s) { return *engines_[static_cast<std::size_t>(s)]; }
  const Engine& engine(int s) const {
    return *engines_[static_cast<std::size_t>(s)];
  }
  ShardRouter& router() { return router_; }
  Duration lookahead() const { return lookahead_; }

  /// Worker threads per run (default on). Sequential mode executes the
  /// same window schedule on the calling thread; required when host
  /// threads share unsynchronized state across shards, and for any run
  /// that must remain fork()-compatible (chaos fork server).
  void set_threaded(bool threaded) { threaded_ = threaded; }
  bool threaded() const { return threaded_; }

  /// Forces the windowed loop even at size() == 1 (the CI determinism
  /// oracle: windowed single-shard must match the plain serial loop).
  void set_force_windows(bool force) { force_windows_ = force; }

  /// Runs windows until `done()` returns true (checked at each window
  /// barrier) or every engine is idle with no records in flight. Returns
  /// engine events processed during the call.
  std::uint64_t run_to_completion(const std::function<bool()>& done = {});

  /// Runs all events with timestamp < t, then advances every engine's
  /// clock to exactly t. Always executes sequentially on the calling
  /// thread (it exists for the pre-fork warmup path, which must never
  /// spawn workers).
  void run_until(Time t);

  /// Latest clock across shards (shards inside one window may sit at
  /// slightly different instants; the max is the cluster-wide "now").
  Time max_now() const;

  std::uint64_t total_events() const;

  /// Replay digest of the whole group: exactly engine(0)'s digest for a
  /// single shard (oracle property), a shard-order fold otherwise.
  std::uint64_t combined_digest() const;

  /// Union of every shard's metric registry at max_now(). Counters and
  /// gauges with the same name sum; histograms merge. A 1-shard group
  /// returns engine(0).snapshot() verbatim.
  obs::Snapshot merged_snapshot() const;

  /// Every shard's retained span traces, merged in (node, ep) order with
  /// commit order kept within an endpoint. A 1-shard group returns
  /// engine(0).spans().collect() verbatim.
  std::vector<obs::SpanTrace> collect_spans() const;

  /// Engine::shutdown() across shards in index order (teardown ordering
  /// for Cluster's destructor).
  void shutdown_all();

  /// Process-wide count of live shard worker threads. The chaos fork
  /// server asserts this is zero before fork(): forking a multi-threaded
  /// process would duplicate only the calling thread and deadlock the
  /// barrier (fork-before-threads ordering, DESIGN.md §13).
  static int live_workers() {
    return live_workers_.load(std::memory_order_acquire);
  }

 private:
  friend class ShardRouter;

  /// Global min next-event time, or kIdle when every queue is empty.
  static constexpr Time kIdle = INT64_MAX;
  Time min_next_event();

  /// The barrier step: routes every buffered cross-shard record, then
  /// applies every queued cross-shard span stamp to its owning recorder
  /// (shards in index order). Only called with no window executing.
  void drain_barrier();

  void run_windows_sequential(const std::function<bool()>& done, Time limit);
  void run_windows_threaded(const std::function<bool()>& done);

  std::vector<std::unique_ptr<Engine>> engines_;
  ShardRouter router_;
  Duration lookahead_;
  bool threaded_ = true;
  bool force_windows_ = false;

  // Window state shared with workers; written only inside the barrier
  // completion step, which happens-before every worker's release.
  Time window_end_ = 0;
  bool stop_ = false;

  static std::atomic<int> live_workers_;
};

}  // namespace vnet::sim
