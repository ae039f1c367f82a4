#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "host/host.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"

namespace vnet::cluster {

/// A complete simulated cluster: engine shards, fabric, and N hosts (each
/// with a NIC and segment driver), built from a ClusterConfig and started.
///
/// With config.shards == 1 (the default) everything runs on one engine and
/// behaves exactly as the serial simulator always has. With more shards the
/// fabric is partitioned across engines (see Fabric's sharded factories)
/// and runs advance in conservative lookahead windows (sim/shard.hpp);
/// run-to-run output is deterministic for a fixed (seed, shard count).
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  /// Destroys all simulation processes *before* the hosts and fabric they
  /// reference.
  ~Cluster() { group_.shutdown_all(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Shard 0's engine: the control-plane timeline (chaos campaigns,
  /// watchdogs, single-shard tests). Prefer the cluster-level helpers
  /// below for anything that must span shards.
  sim::Engine& engine() { return group_.engine(0); }
  sim::ShardGroup& shard_group() { return group_; }
  int shards() const { return group_.size(); }

  myrinet::Fabric& fabric() { return *fabric_; }
  host::Host& host(int n) { return *hosts_[static_cast<std::size_t>(n)]; }
  int size() const { return static_cast<int>(hosts_.size()); }
  const ClusterConfig& config() const { return config_; }

  /// Spawns a user thread running `body` on `node`. The thread's CPU use
  /// is time-shared with every other thread on that host. The thread runs
  /// on the engine of `node`'s shard.
  using ThreadBody = std::function<sim::Task<>(host::HostThread&)>;
  void spawn_thread(int node, std::string name, ThreadBody body);

  /// Number of spawned threads that have finished.
  std::uint64_t completed_threads() const {
    return completed_.load(std::memory_order_acquire);
  }
  std::uint64_t spawned_threads() const {
    return spawned_.load(std::memory_order_acquire);
  }
  bool all_threads_done() const {
    return completed_threads() == spawned_threads();
  }

  /// Runs the simulation until every spawned thread has completed (or the
  /// event queues go idle). Returns simulated time elapsed.
  sim::Duration run_to_completion();

  /// Runs until every shard is idle with nothing in flight (the post-test
  /// drain that used to be engine().run()).
  void drain();

  /// Runs all pending work below `t`, then advances every shard to `t`.
  /// Always single-threaded — safe before fork().
  void run_until(sim::Time t) { group_.run_until(t); }

  /// Latest simulated instant across shards (== engine().now() serially).
  sim::Time now() const { return group_.max_now(); }

  /// Union of all shards' metric registries (engine().snapshot() serially).
  obs::Snapshot merged_snapshot() const { return group_.merged_snapshot(); }

  /// Every shard's retained span traces in (node, ep) order
  /// (engine().spans().collect() serially; see ShardGroup::collect_spans).
  std::vector<obs::SpanTrace> collect_spans() const {
    return group_.collect_spans();
  }

  /// Whole-cluster replay digest: engine(0)'s digest serially, a
  /// shard-order fold otherwise (see ShardGroup::combined_digest).
  std::uint64_t replay_digest() const { return group_.combined_digest(); }

  std::uint64_t events_processed() const { return group_.total_events(); }

 private:
  sim::Process thread_wrapper(host::Host& h, std::string name,
                              ThreadBody body);

  ClusterConfig config_;
  sim::ShardGroup group_;
  std::unique_ptr<myrinet::Fabric> fabric_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  // Atomic: incremented from shard workers, read at window barriers.
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> completed_{0};
};

}  // namespace vnet::cluster
