#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/scenario.hpp"

namespace vnet::chaos {

/// Fork-server chaos multiplication (ROADMAP item 5): warm a scenario's
/// cluster once to a checkpoint just before its first fault, then fork()
/// child timelines off that image — each applies a (possibly different)
/// fault plan and reports its verdict back over a pipe as canonical JSON.
///
/// fork() is the snapshot mechanism: the child inherits a copy-on-write
/// image of the entire simulation (event queue, coroutine frames, RNG
/// state), so a child that runs to completion is byte-equivalent to the
/// parent running straight through — a property the replay digest
/// (sim::Engine::replay_digest) asserts rather than assumes. Child crashes
/// (abort, sanitizer fault) are contained: the parent captures the exit
/// status and stderr and synthesizes a failed verdict; the matrix always
/// completes.

/// Whether this platform can fork children (false → callers fall back to
/// fresh in-process runs).
bool fork_available();

/// What came back from one child timeline.
struct ForkOutcome {
  ScenarioResult result;    ///< parsed verdict, or synthesized on crash
  bool crashed = false;     ///< child died or returned unparseable bytes
  std::string detail;       ///< e.g. "signal 6 (SIGABRT)", "exit 3"
  std::string stderr_tail;  ///< last captured child stderr (crash triage)
  std::string raw_json;     ///< verdict bytes as received (CI artifact)
};

class ForkServer {
 public:
  /// Builds the scenario and warms it, fault-free, to the checkpoint just
  /// before the earliest action of the spec's drawn plan (time 0 when the
  /// plan is empty or immediate).
  explicit ForkServer(const ScenarioSpec& spec);
  ~ForkServer();
  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  const ScenarioSpec& spec() const { return spec_; }
  const FaultPlan& default_plan() const;
  sim::Time checkpoint() const { return checkpoint_; }

  /// An in-flight child timeline. Outlives its ForkServer — collect() may
  /// run after the parent image is gone.
  struct Child {
    int pid = -1;
    int pipe_fd = -1;        ///< verdict stream (read side)
    std::FILE* err = nullptr;  ///< child stderr capture (tmpfile)
    std::string name;        ///< scenario name, for synthesized verdicts
    std::uint64_t seed = 0;
  };

  /// Forks a child off the warm image; the child applies `plan`, writes
  /// its verdict JSON to the pipe and _exit()s. The parent image stays at
  /// the checkpoint, reusable for further children (this is what makes
  /// bisection cheap: one warmup, ~log2(n) probes).
  Child start(const FaultPlan& plan);

  /// Reads the child's verdict to EOF, reaps it, and parses — or, if it
  /// crashed, synthesizes a failed verdict with the captured stderr.
  static ForkOutcome collect(Child& child);

  ForkOutcome run_child(const FaultPlan& plan) {
    Child c = start(plan);
    return collect(c);
  }

  /// Consumes the warm image in-process: the straight-through twin of a
  /// forked child, for digest-identity checks. May be called once; no
  /// start() is allowed afterwards.
  ScenarioResult run_inline(const FaultPlan& plan);
  ScenarioResult run_inline() { return run_inline(default_plan()); }

  /// Test-only: runs inside the child after fork, before the scenario
  /// resumes (the crash-containment test abort()s here).
  std::function<void()> child_hook;

 private:
  ScenarioSpec spec_;
  std::unique_ptr<ScenarioRun> run_;
  sim::Time checkpoint_ = 0;
  bool spent_ = false;
};

// ------------------------------------------------------------- the matrix

/// Runs every spec as its own warmed-then-forked timeline, up to `jobs`
/// children in flight at once (children of different cells run while the
/// parent warms the next cell). Outcomes are returned in spec order.
/// Falls back to serial in-process runs when fork() is unavailable.
std::vector<ForkOutcome> run_matrix(
    const std::vector<ScenarioSpec>& specs, int jobs,
    const std::function<void(std::size_t, const ForkOutcome&)>& on_done =
        nullptr);

// --------------------------------------------------------------- bisection

/// Where an invariant break was isolated to.
struct BisectReport {
  bool found = false;        ///< false: the full plan never failed
  std::string scenario;
  std::uint64_t seed = 0;
  sim::Time trigger_time = 0;  ///< time of the first breaking action
  FaultPlan minimal_plan;      ///< trimmed to the triggering actions
  std::size_t full_actions = 0;
  int probes = 0;              ///< forked (or fallback) probe runs used
  std::vector<std::string> log;
  ScenarioResult failing;      ///< verdict of the minimal repro run
};

/// Isolates the first invariant-breaking point of `plan` under `spec`:
/// binary-searches the smallest failing time-ordered prefix off one warm
/// image, then greedily drops earlier actions that are not needed for the
/// break. The result's minimal_plan re-fails by construction.
BisectReport bisect_invariant_break(const ScenarioSpec& spec,
                                    const FaultPlan& plan);

/// Convenience: bisects the plan the spec's own callback draws.
BisectReport bisect_invariant_break(const ScenarioSpec& spec);

/// The machine-readable repro artifact: seed, scenario, trigger time, and
/// the trimmed plan — everything needed to re-run the break.
json::Value repro_json(const BisectReport& r);

/// One-paragraph human rendering of the repro (stdout on CI failure).
std::string render_repro(const BisectReport& r);

}  // namespace vnet::chaos
