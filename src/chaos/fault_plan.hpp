#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "myrinet/fabric.hpp"
#include "obs/json.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace vnet::chaos {

/// Plans, verdicts and repros serialize through the obs JSON module.
namespace json = obs::json;

/// One timed fault (or heal) to apply to a running cluster.
struct FaultAction {
  enum class Kind {
    kHostLink,    ///< connect/disconnect a host's cable (both directions)
    kTrunkLink,   ///< fail/restore a leaf<->spine trunk (switch port)
    kNicReboot,   ///< reboot a node's NIC mid-traffic
    kFaultRates,  ///< set the uniform drop/corrupt probabilities
    kBurstLoss,   ///< swap the Gilbert–Elliott burst-loss parameters
    kPoison,      ///< test-only: report a phantom delivery to the probe,
                  ///< planting a ledger orphan (bisector verification)
  };
  sim::Time at = 0;
  Kind kind = Kind::kHostLink;
  int node = -1;  ///< host (kHostLink, kNicReboot) or leaf (kTrunkLink)
  int port = -1;  ///< spine index (kTrunkLink)
  bool up = true;
  double drop = 0.0;
  double corrupt = 0.0;
  myrinet::GilbertElliottParams burst;
};

/// Knobs for the randomized "chaos mode" plan generator. All generated
/// faults heal before `end` (links back up, rates reset to zero), so a
/// correct transport must reach quiescence with every message resolved.
struct ChaosOptions {
  sim::Time start = 1 * sim::ms;
  sim::Time end = 20 * sim::ms;
  int events = 6;
  /// Hosts eligible for link flaps / NIC reboots: [first_node, nodes).
  int nodes = 2;
  int first_node = 0;
  /// Fat-tree trunk dimensions for trunk flaps; 0 disables them.
  int leaves = 0;
  int spines = 0;
  sim::Duration max_down = 2 * sim::ms;
  double max_drop = 0.05;
  double max_corrupt = 0.01;
  bool allow_reboot = true;
  bool allow_burst = true;
};

/// A scripted fault timeline: an ordered list of FaultActions built with a
/// fluent API, or generated randomly (deterministically, from a seeded Rng
/// split off the engine) by chaos_mode(). Executed by a chaos::Campaign.
class FaultPlan {
 public:
  FaultPlan& host_link(sim::Time at, int node, bool up);
  /// Down at `at`, back up `down_for` later.
  FaultPlan& host_flap(sim::Time at, int node, sim::Duration down_for);
  FaultPlan& trunk_link(sim::Time at, int leaf, int spine, bool up);
  FaultPlan& trunk_flap(sim::Time at, int leaf, int spine,
                        sim::Duration down_for);
  FaultPlan& nic_reboot(sim::Time at, int node);
  FaultPlan& fault_rates(sim::Time at, double drop, double corrupt);
  FaultPlan& burst_loss(sim::Time at,
                        const myrinet::GilbertElliottParams& burst);
  /// Burst loss on at `at`, off again `duration` later.
  FaultPlan& burst_episode(sim::Time at, sim::Duration duration,
                           const myrinet::GilbertElliottParams& burst);
  /// Test-only: at `at`, feed the installed MessageProbe a delivery for a
  /// message that was never injected. The ledger flags it as an orphan —
  /// a deliberately planted invariant break whose first-breaking time the
  /// bisector must recover.
  FaultPlan& poison(sim::Time at, int node = 1);

  /// Appends an already-built action verbatim — how the bisector and the
  /// JSON deserializer construct trimmed plans.
  FaultPlan& append(const FaultAction& a) {
    actions_.push_back(a);
    return *this;
  }

  /// Randomized self-healing fault timeline (see ChaosOptions).
  static FaultPlan chaos_mode(sim::Rng& rng, const ChaosOptions& opt);

  bool empty() const { return actions_.empty(); }
  std::size_t size() const { return actions_.size(); }
  /// Actions in insertion order; the Campaign sorts by time before running.
  const std::vector<FaultAction>& actions() const { return actions_; }

 private:
  std::vector<FaultAction> actions_;
};

/// One-line human-readable description, used in campaign logs.
std::string describe(const FaultAction& a);

/// JSON round-trip, used by fork-server verdicts and bisection repro
/// artifacts: a repro must carry its (trimmed) fault plan in a form a later
/// process can parse and re-run.
json::Value to_json(const FaultAction& a);
FaultAction action_from_json(const json::Value& v);
json::Value to_json(const FaultPlan& plan);
FaultPlan plan_from_json(const json::Value& v);

}  // namespace vnet::chaos
