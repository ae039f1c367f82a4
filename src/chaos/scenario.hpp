#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/ledger.hpp"
#include "cluster/cluster.hpp"
#include "obs/watchdog.hpp"

namespace vnet::chaos {

/// A chaos scenario: a client/server request-reply workload plus a fault
/// timeline, run to quiescence and checked against the delivery ledger.
///
/// Node layout: 0 = controller (no traffic), 1 = server, 2 = replica,
/// 3..3+clients = client nodes. Clients send `requests_per_client` echo
/// requests to the server; with `failover` they re-issue returned (and, at
/// the deadline, still-unacknowledged) requests to the replica — the
/// fault_tolerance recipe of §3.2.
struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 1;
  int clients = 2;
  int requests_per_client = 30;
  std::uint32_t bulk_bytes = 0;  ///< per-request payload (0 = short message)
  /// Gap between successive sends: spreads the workload across the fault
  /// timeline so faults actually hit in-flight traffic.
  sim::Duration send_spacing = 200 * sim::us;
  bool failover = false;
  /// Use a 2-hosts-per-leaf / 2-spine fat-tree instead of a crossbar (for
  /// trunk faults); the server then sits on a different leaf from clients.
  bool fat_tree = false;
  /// Optional NicConfig/ClusterConfig adjustments before the cluster is
  /// built (e.g. a lower unbind limit).
  std::function<void(cluster::ClusterConfig&)> tweak;
  /// Fault timeline; receives the built cluster (for sizes) and a seeded
  /// Rng split off the engine (for chaos mode).
  std::function<FaultPlan(cluster::Cluster&, sim::Rng&)> plan;
  sim::Duration client_deadline = 60 * sim::ms;
  /// How long the controller waits after clients finish for the ledger to
  /// fully resolve before declaring the campaign over.
  sim::Duration resolve_grace = 100 * sim::ms;
};

struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;

  DeliveryLedger::Counts counts;
  /// Ledger violations plus end-of-run liveness violations (wedged send
  /// queues). Empty == the campaign upheld every invariant.
  std::vector<std::string> violations;

  // Application-level outcome.
  std::uint64_t requests_issued = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t returns_seen = 0;
  std::uint64_t reissued = 0;
  std::uint64_t unfinished = 0;  ///< client requests with no terminal state

  // Transport work, summed over all NICs.
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t channel_unbinds = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t returned_to_sender = 0;

  // Fabric losses.
  std::uint64_t dropped_down = 0;
  std::uint64_t dropped_fault = 0;

  sim::Time last_fault_at = 0;
  sim::Time resolved_at = 0;
  /// Quiescence (last message reaching a terminal state) minus the last
  /// fault action: how long the transport needed to dig itself out.
  sim::Duration recovery_time = 0;
  sim::Duration total_time = 0;

  std::vector<std::string> campaign_log;
  std::string link_stats;  ///< per-link drop table (campaign report)

  /// Stall-watchdog firings (obs/watchdog.hpp) observed during the run:
  /// which component stalled, when, and for how many windows. The checkers
  /// above judge *whether* delivery invariants held; the watchdog names the
  /// component that went quiet while a fault was in force.
  std::vector<obs::WatchdogEvent> watchdog_events;
  std::string watchdog_summary;  ///< rendered table ("" if nothing fired)

  /// Deterministic-replay digest of the whole run (sim::Engine::
  /// replay_digest at quiescence) and the event count behind it. A fork()ed
  /// timeline must report the same digest as the straight-through run.
  std::uint64_t replay_digest = 0;
  std::uint64_t events_processed = 0;
};

/// A scenario split at its warmup boundary, for the fork server: the
/// constructor builds the cluster and workload and draws the spec's fault
/// plan (fixing the RNG history regardless of which plan is later applied);
/// warm() runs the timeline fault-free up to a checkpoint; finish() applies
/// a fault plan — the drawn one or a substitute, e.g. a bisection prefix —
/// and runs to quiescence. `warm(); fork(); finish()` in each child is
/// byte-equivalent to a straight-through `finish()` because fork() copies
/// the entire simulation state.
class ScenarioRun {
 public:
  explicit ScenarioRun(const ScenarioSpec& spec);
  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  /// The plan the spec's callback produced (empty if the spec has none).
  const FaultPlan& default_plan() const;

  /// Latest time safely before the earliest action of `plan`, clamped to
  /// be non-negative. warm() to this point keeps every fault ahead of the
  /// checkpoint, so a forked child replays the full fault timeline.
  sim::Time checkpoint_for(const FaultPlan& plan) const;

  /// Runs the workload fault-free up to absolute time `t`. May be called
  /// once, before finish().
  void warm(sim::Time t);

  /// Applies `plan` (actions earlier than now() fire immediately), runs to
  /// quiescence, drains trailing transport events, and judges the ledger.
  ScenarioResult finish(const FaultPlan& plan);
  ScenarioResult finish() { return finish(default_plan()); }

  sim::Engine& engine();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Builds, runs and checks one scenario. Deterministic for a fixed spec.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Machine-readable verdict for one scenario run: invariant results, stall
/// flags, transport counters, and the replay digest. Canonical JSON — the
/// same bytes feed the fork-server pipe, the CI artifact, and the tests.
json::Value verdict_json(const ScenarioResult& r);
ScenarioResult verdict_from_json(const json::Value& v);

/// True when every delivery invariant held (no violations, no duplicates,
/// no silent losses, no orphans). The bisection predicate.
bool verdict_ok(const ScenarioResult& r);

/// The standard chaos matrix: link_flap, burst_loss, nic_reboot,
/// host_failover, trunk_flap, chaos.
std::vector<std::string> standard_scenario_names();
ScenarioSpec standard_scenario(const std::string& name, std::uint64_t seed);

/// One formatted table row / header for the bench report.
std::string result_table_header();
std::string result_table_row(const ScenarioResult& r);

}  // namespace vnet::chaos
