// Chaos campaign tests: the scenario matrix (every standard scenario across
// a seed sweep must uphold the end-to-end delivery invariants), plus focused
// regressions for NIC reboot under in-flight bulk transfers and for
// bounded-retransmission unbinding / return-to-sender past the unreachable
// timeout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/scenario.hpp"

namespace vnet::chaos {
namespace {

void expect_invariants(const ScenarioResult& res) {
  for (const std::string& v : res.violations) {
    ADD_FAILURE() << res.name << " seed " << res.seed << ": " << v;
  }
  EXPECT_EQ(res.counts.duplicate_deliveries, 0u)
      << "exactly-once violated in " << res.name << " seed " << res.seed;
  EXPECT_EQ(res.counts.unresolved, 0u)
      << "silently lost messages in " << res.name << " seed " << res.seed;
  EXPECT_EQ(res.counts.orphan_events, 0u);
  EXPECT_GT(res.counts.injected, 0u) << "scenario sent no traffic";
  EXPECT_GT(res.replies_received, 0u) << "no request ever completed";
}

// ------------------------------------------------------------ the matrix

using MatrixParam = std::tuple<std::string, std::uint64_t>;

class ChaosMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ChaosMatrix, InvariantsHoldUnderFaults) {
  const auto& [name, seed] = GetParam();
  const ScenarioResult res = run_scenario(standard_scenario(name, seed));
  expect_invariants(res);

  // Per-scenario teeth: the faults must actually have bitten, otherwise a
  // regression that stops injecting them would pass vacuously.
  if (name == "link_flap") {
    EXPECT_GT(res.dropped_down, 0u) << "flap never dropped a packet";
    EXPECT_GT(res.retransmissions, 0u);
  } else if (name == "burst_loss") {
    EXPECT_GT(res.dropped_fault, 0u) << "burst model never dropped";
    EXPECT_GT(res.retransmissions, 0u);
  } else if (name == "nic_reboot") {
    EXPECT_GT(res.retransmissions, 0u)
        << "reboot lost no in-flight traffic";
  } else if (name == "host_failover") {
    EXPECT_GT(res.returns_seen, 0u) << "nothing was returned to sender";
    EXPECT_GT(res.reissued, 0u) << "client never failed over";
    EXPECT_EQ(res.unfinished, 0u)
        << "failover to the healthy replica did not complete";
  } else if (name == "trunk_flap") {
    EXPECT_GT(res.dropped_down, 0u) << "trunk fault never dropped a packet";
    EXPECT_GT(res.channel_unbinds, 0u)
        << "no channel ever unbound off the dead route";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ChaosMatrix,
    ::testing::Combine(::testing::Values("link_flap", "burst_loss",
                                         "nic_reboot", "host_failover",
                                         "trunk_flap", "chaos"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------- determinism

TEST(ChaosDeterminism, SameSeedSameResult) {
  const ScenarioResult a = run_scenario(standard_scenario("chaos", 7));
  const ScenarioResult b = run_scenario(standard_scenario("chaos", 7));
  EXPECT_EQ(a.counts.injected, b.counts.injected);
  EXPECT_EQ(a.counts.delivered, b.counts.delivered);
  EXPECT_EQ(a.counts.returned, b.counts.returned);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped_down + a.dropped_fault,
            b.dropped_down + b.dropped_fault);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.campaign_log, b.campaign_log);
}

TEST(ChaosDeterminism, DifferentSeedsDifferentTimelines) {
  const ScenarioResult a = run_scenario(standard_scenario("chaos", 11));
  const ScenarioResult b = run_scenario(standard_scenario("chaos", 12));
  EXPECT_NE(a.campaign_log, b.campaign_log);
}

// ------------------------------------------------------ watchdog firings

// Every standard scenario at seed 1: how often each stall rule fired and
// the first firing, as the snapshot-and-diff watchdog recorded them. A
// change that moves any firing, in the watchdog or in the simulation it
// watches, fails here.
TEST(ChaosWatchdog, StandardScenarioFiringsArePinned) {
  constexpr const char* kRules[] = {"channel-stall", "frame-loiter",
                                    "spin-poll", "link-pegged"};
  struct Pin {
    const char* scenario;
    std::size_t per_rule[4];  // in kRules order
    std::int64_t first_at_ns;
    const char* first_rule;
    const char* first_subject;
  };
  const Pin pins[] = {
      {"link_flap", {14, 1, 0, 0}, 2'500'000, "channel-stall", "host.1.nic"},
      {"burst_loss", {15, 9, 0, 0}, 1'500'000, "channel-stall", "host.1.nic"},
      {"nic_reboot", {28, 4, 0, 5}, 2'000'000, "channel-stall", "host.3.nic"},
      {"host_failover",
       {73, 31, 0, 0},
       2'500'000,
       "channel-stall",
       "host.1.nic"},
      {"trunk_flap", {1, 0, 0, 0}, 3'000'000, "channel-stall", "host.1.nic"},
      {"chaos", {11, 3, 0, 0}, 5'000'000, "channel-stall", "host.4.nic"},
  };
  const std::vector<std::string> names = standard_scenario_names();
  ASSERT_EQ(names.size(), std::size(pins));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Pin& pin = pins[i];
    ASSERT_EQ(names[i], pin.scenario);
    const ScenarioResult res = run_scenario(standard_scenario(names[i], 1));
    for (std::size_t r = 0; r < std::size(kRules); ++r) {
      const auto fired = static_cast<std::size_t>(std::count_if(
          res.watchdog_events.begin(), res.watchdog_events.end(),
          [&](const obs::WatchdogEvent& e) { return e.rule == kRules[r]; }));
      EXPECT_EQ(fired, pin.per_rule[r]) << names[i] << " " << kRules[r];
    }
    ASSERT_FALSE(res.watchdog_events.empty()) << names[i];
    const obs::WatchdogEvent& first = res.watchdog_events.front();
    EXPECT_EQ(first.at_ns, pin.first_at_ns) << names[i];
    EXPECT_EQ(first.rule, pin.first_rule) << names[i];
    EXPECT_EQ(first.subject, pin.first_subject) << names[i];
  }
}

// --------------------------------------------------- verdict round-trip

// The machine-readable verdict (fork-server pipe format, CI artifact) must
// carry the full scenario result: serialize a real run, parse the bytes
// back, and compare every field the matrix and the digest checks consume.
TEST(ChaosVerdict, JsonRoundTripPreservesResult) {
  const ScenarioResult res = run_scenario(standard_scenario("link_flap", 1));
  const std::string bytes = verdict_json(res).dump();

  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::parse(bytes, &parsed, &error)) << error;
  const ScenarioResult back = verdict_from_json(parsed);

  EXPECT_EQ(back.name, res.name);
  EXPECT_EQ(back.seed, res.seed);
  EXPECT_EQ(back.counts.injected, res.counts.injected);
  EXPECT_EQ(back.counts.delivered, res.counts.delivered);
  EXPECT_EQ(back.counts.returned, res.counts.returned);
  EXPECT_EQ(back.counts.duplicate_deliveries,
            res.counts.duplicate_deliveries);
  EXPECT_EQ(back.counts.unresolved, res.counts.unresolved);
  EXPECT_EQ(back.counts.orphan_events, res.counts.orphan_events);
  EXPECT_EQ(back.violations, res.violations);
  EXPECT_EQ(back.requests_issued, res.requests_issued);
  EXPECT_EQ(back.replies_received, res.replies_received);
  EXPECT_EQ(back.retransmissions, res.retransmissions);
  EXPECT_EQ(back.channel_unbinds, res.channel_unbinds);
  EXPECT_EQ(back.dropped_down, res.dropped_down);
  EXPECT_EQ(back.dropped_fault, res.dropped_fault);
  EXPECT_EQ(back.recovery_time, res.recovery_time);
  EXPECT_EQ(back.total_time, res.total_time);
  EXPECT_EQ(back.campaign_log, res.campaign_log);
  EXPECT_EQ(back.link_stats, res.link_stats);
  ASSERT_EQ(back.watchdog_events.size(), res.watchdog_events.size());
  for (std::size_t i = 0; i < back.watchdog_events.size(); ++i) {
    EXPECT_EQ(back.watchdog_events[i].at_ns, res.watchdog_events[i].at_ns);
    EXPECT_EQ(back.watchdog_events[i].rule, res.watchdog_events[i].rule);
    EXPECT_EQ(back.watchdog_events[i].subject,
              res.watchdog_events[i].subject);
  }
  EXPECT_EQ(back.replay_digest, res.replay_digest);
  EXPECT_EQ(back.events_processed, res.events_processed);
  EXPECT_EQ(verdict_ok(back), verdict_ok(res));

  // Canonical serialization: re-dumping the parsed document reproduces the
  // same bytes (sorted keys, stable number formatting).
  EXPECT_EQ(verdict_json(back).dump(), bytes);
}

// -------------------------------------- NIC reboot under in-flight bulk

// SRAM channel state, epochs, and the in-flight fragment bindings die with
// the NIC; the reassembly and dedup windows (host memory) must not. Both
// the receiving and a sending NIC reboot mid-bulk-transfer; every transfer
// must still complete exactly once.
TEST(NicRebootChaos, BulkTransfersSurviveReceiverAndSenderReboots) {
  ScenarioSpec spec;
  spec.name = "reboot_bulk";
  spec.seed = 3;
  spec.clients = 1;
  spec.requests_per_client = 6;
  spec.bulk_bytes = 32768;  // 8 fragments per request at the 4 KB MTU
  spec.send_spacing = 400 * sim::us;  // keep transfers in flight past 3 ms
  spec.plan = [](cluster::Cluster&, sim::Rng&) {
    return FaultPlan{}
        .nic_reboot(1 * sim::ms, 1)       // receiver, mid-reassembly
        .nic_reboot(2200 * sim::us, 1)    // receiver again (stale epochs)
        .nic_reboot(3 * sim::ms, 3);      // sender, with frags in flight
  };
  const ScenarioResult res = run_scenario(spec);
  expect_invariants(res);
  EXPECT_EQ(res.unfinished, 0u)
      << "a bulk transfer never completed after the reboots";
  EXPECT_EQ(res.returns_seen, 0u)
      << "a momentary reboot must not escalate to return-to-sender";
}

// ------------------- bounded retransmission: unbind, then return-to-sender

// With the peer gone for good, retransmission must not loop forever on one
// channel: after retransmit_unbind_limit consecutive losses the message is
// unbound (freeing the channel), and past unreachable_timeout it comes back
// through the undeliverable path. The send queue must be fully swept.
TEST(UnreachableChaos, UnbindsThenReturnsWhenPeerStaysDown) {
  ScenarioSpec spec;
  spec.name = "peer_down";
  spec.seed = 2;
  spec.clients = 2;
  spec.requests_per_client = 20;
  spec.failover = false;
  spec.tweak = [](cluster::ClusterConfig& cfg) {
    cfg.nic.retransmit_unbind_limit = 3;
    cfg.nic.max_backoff_exponent = 2;
  };
  spec.plan = [](cluster::Cluster&, sim::Rng&) {
    return FaultPlan{}.host_link(1 * sim::ms, 1, false);  // permanent
  };
  const ScenarioResult res = run_scenario(spec);
  for (const std::string& v : res.violations) {
    ADD_FAILURE() << res.name << ": " << v;
  }
  EXPECT_EQ(res.counts.duplicate_deliveries, 0u);
  EXPECT_EQ(res.counts.unresolved, 0u)
      << "messages to a dead peer must be returned, not lost";
  EXPECT_GT(res.channel_unbinds, 0u)
      << "bounded retransmission never unbound a channel";
  EXPECT_GT(res.returned_to_sender, 0u);
  EXPECT_GT(res.returns_seen, 0u)
      << "returns never reached the application handler";
}

}  // namespace
}  // namespace vnet::chaos
