// Chaos matrix report, multiplied through the fork server: each scenario
// cell is warmed fault-free in the parent to the checkpoint just before its
// first fault, then fork()ed — the child timeline applies the fault plan
// and reports a machine-readable JSON verdict over a pipe. Child crashes
// are contained (captured stderr + failed cell), invariant breaks can be
// bisected down to a minimal repro, and --verify-digest proves that a
// forked timeline is byte-identical to the straight-through run.
//
// Output is deterministic for fixed flags — two identical invocations must
// print identical bytes (no wall-clock, no pointers), which
// scripts/check.sh relies on.
//
// Usage: bench_chaos_matrix [--seeds N] [--seed-base S] [--scenario NAME]
//                           [--jobs J] [--serial] [--json-dir DIR]
//                           [--verify-digest] [--bisect] [--repro FILE]
//                           [--shards N]
//
// --shards runs every scenario on a sharded cluster (sim/shard.hpp) in
// force-windows mode on one OS thread: deterministic, fork-compatible, and
// safe for the scenarios' cross-host shared state. At --shards 1 the
// windowed scheduler must reproduce the serial engine byte-for-byte — CI
// diffs the two verdict-JSON trees as the determinism oracle.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/forkserver.hpp"
#include "chaos/scenario.hpp"
#include "common.hpp"

using namespace vnet;

int main(int argc, char** argv) {
  std::setbuf(stdout, nullptr);
  int seeds = 3;
  int jobs = 2;
  std::uint64_t seed_base = 1;
  std::string only;
  std::string json_dir;
  std::string repro_path;
  bool serial = false;
  bool verify_digest = false;
  bool bisect = false;
  int shards = 0;  // 0 = untouched (the plain serial engine)
  bench::Args args(
      "Chaos fault-injection matrix through the fork server; deterministic "
      "output for fixed flags.");
  args.option("--seeds", &seeds, "N", "seeds per scenario")
      .option("--seed-base", &seed_base, "S", "first seed value")
      .option("--scenario", &only, "NAME", "run only this scenario")
      .option("--jobs", &jobs, "J", "parallel fork-server children")
      .flag("--serial", &serial, "run in-process, no fork server")
      .option("--json-dir", &json_dir, "DIR", "write per-cell verdict JSON here")
      .flag("--verify-digest", &verify_digest,
            "prove forked timelines match straight-through replay digests")
      .flag("--bisect", &bisect, "bisect any invariant break to a minimal repro")
      .option("--repro", &repro_path, "FILE", "write bisected repro JSON here")
      .option("--shards", &shards, "N",
              "run on N engine shards (windowed scheduler; 1 = oracle)");
  if (!args.parse(argc, argv)) return 2;

  if (seeds < 1) {
    std::fprintf(stderr, "error: --seeds must be >= 1 (got %d)\n", seeds);
    return 2;
  }
  if (jobs < 1) jobs = 1;
  if (!only.empty()) {
    bool known = false;
    for (const std::string& name : chaos::standard_scenario_names()) {
      known = known || name == only;
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown scenario '%s'; known:",
                   only.c_str());
      for (const std::string& name : chaos::standard_scenario_names()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  std::vector<chaos::ScenarioSpec> specs;
  for (const std::string& name : chaos::standard_scenario_names()) {
    if (!only.empty() && name != only) continue;
    for (int s = 0; s < seeds; ++s) {
      specs.push_back(
          chaos::standard_scenario(name, seed_base + std::uint64_t(s)));
      if (shards >= 1) {
        // Layer the shard count onto the scenario's own config tweak.
        // Sequential force-windows mode: scenarios share plain memory
        // across host threads and must stay fork()-compatible, so the
        // windowed schedule runs on one OS thread.
        chaos::ScenarioSpec& spec = specs.back();
        auto base = spec.tweak;
        spec.tweak = [base, shards](cluster::ClusterConfig& cfg) {
          if (base) base(cfg);
          cfg.shards = shards;
          cfg.shard_force_windows = true;
          cfg.shard_threads = false;
        };
      }
    }
  }

  const bool forked = chaos::fork_available() && !serial;
  std::printf("chaos matrix: %d seed(s) per scenario, base %llu (%s)\n\n",
              seeds, static_cast<unsigned long long>(seed_base),
              forked ? "fork server" : "serial");
  std::printf("%s\n", chaos::result_table_header().c_str());

  std::vector<chaos::ForkOutcome> outcomes;
  if (!forked) {
    outcomes.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      outcomes[i].result = chaos::run_scenario(specs[i]);
    }
  } else if (verify_digest) {
    // Digest-verification mode: each cell forks a child AND runs the same
    // warm image straight through in the parent, then compares the replay
    // digests — fork() proven as a determinism-preserving snapshot.
    outcomes.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      chaos::ForkServer server(specs[i]);
      const chaos::FaultPlan plan = server.default_plan();
      outcomes[i] = server.run_child(plan);
      const chaos::ScenarioResult straight = server.run_inline(plan);
      if (outcomes[i].crashed) continue;
      if (outcomes[i].result.replay_digest != straight.replay_digest) {
        outcomes[i].result.violations.push_back(
            "replay digest mismatch: forked timeline diverged from "
            "straight-through run");
      }
    }
  } else {
    outcomes = chaos::run_matrix(specs, jobs);
  }

  int total_violations = 0;
  int crashes = 0;
  std::vector<chaos::ScenarioResult> flagged;
  std::vector<chaos::ScenarioResult> stalled;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const chaos::ScenarioResult& res = outcomes[i].result;
    std::printf("%s\n", chaos::result_table_row(res).c_str());
    total_violations += static_cast<int>(res.violations.size());
    crashes += outcomes[i].crashed ? 1 : 0;
    if (!res.violations.empty()) flagged.push_back(res);
    if (!res.watchdog_events.empty()) stalled.push_back(res);
    if (!json_dir.empty()) {
      const std::string path = json_dir + "/" + res.name + "_seed" +
                               std::to_string(res.seed) + ".json";
      const std::string bytes = !outcomes[i].raw_json.empty()
                                    ? outcomes[i].raw_json
                                    : chaos::verdict_json(res).dump();
      if (!bench::write_file(path, bytes)) {
        std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      }
    }
  }

  if (verify_digest && crashes == 0 && total_violations == 0) {
    std::printf("\nreplay digests: all %zu forked timelines identical to "
                "straight-through\n",
                outcomes.size());
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].crashed) continue;
    std::printf("\n%s seed %llu child crashed: %s\n",
                outcomes[i].result.name.c_str(),
                static_cast<unsigned long long>(outcomes[i].result.seed),
                outcomes[i].detail.c_str());
    if (!outcomes[i].stderr_tail.empty()) {
      std::printf("--- captured child stderr ---\n%s\n",
                  outcomes[i].stderr_tail.c_str());
    }
  }

  // Stalls are expected while a fault is in force (that is the point of the
  // watchdog: it names the quiet component); they are a report, not a
  // violation.
  for (const auto& res : stalled) {
    std::printf("\n%s seed %llu stall report:\n%s", res.name.c_str(),
                static_cast<unsigned long long>(res.seed),
                res.watchdog_summary.c_str());
  }

  for (const auto& res : flagged) {
    std::printf("\n%s seed %llu violations:\n", res.name.c_str(),
                static_cast<unsigned long long>(res.seed));
    for (const auto& v : res.violations) std::printf("  %s\n", v.c_str());
    std::printf("campaign log:\n");
    for (const auto& l : res.campaign_log) std::printf("  %s\n", l.c_str());
    std::printf("%s", res.link_stats.c_str());
  }

  // Any invariant break: re-fork from the warm image at prefix midpoints
  // of the fault timeline until the first breaking action is isolated, and
  // emit the minimal repro.
  if (bisect && !flagged.empty()) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].result.violations.empty()) continue;
      const chaos::BisectReport report =
          chaos::bisect_invariant_break(specs[i]);
      std::printf("\n%s", chaos::render_repro(report).c_str());
      if (!repro_path.empty()) {
        const std::string path =
            outcomes.size() == 1 ? repro_path
                                 : repro_path + "." + specs[i].name +
                                       std::to_string(specs[i].seed);
        const std::string bytes = chaos::repro_json(report).dump(2) + "\n";
        if (!bench::write_file(path, bytes)) {
          std::fprintf(stderr, "warning: could not write %s\n",
                       path.c_str());
        }
      }
    }
  }

  std::printf("\n%s\n", total_violations == 0
                            ? "all invariants held"
                            : "INVARIANT VIOLATIONS DETECTED");
  return total_violations == 0 ? 0 : 1;
}
