#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vnet::obs {

/// Stall watchdogs (DESIGN.md §8): registry-driven detectors that name the
/// component that stopped making progress. The caller invokes check() once
/// per watch window of simulated time; each check reads the counters the
/// rules watch, takes their growth since the previous check, and fires an
/// event per rule/subject that stalled across the whole window:
///
///   channel-stall — a NIC holds busy channels but saw zero acks, nacks or
///                   message completions (e.g. every route to the peer is
///                   down and retransmissions vanish into the dead trunk);
///   frame-loiter  — a NIC has unfinished send descriptors but transmitted
///                   nothing at all, not even a retransmission;
///   spin-poll     — an endpoint's wait loop kept waking (wait_wakeups grew
///                   past the threshold) while handling zero messages or
///                   returns: some thread waits on a level-triggered
///                   condition it never consumes;
///   link-pegged   — back-pressure pinned one link at (near) 100% occupancy
///                   for the entire window.
///
/// Rules fire in that order, and within a rule in metric-name order.
/// Counter growth clamps at 0, a counter that was absent at the previous
/// check grows from 0, and gauges are levels read at the check.
///
/// The watchdog binds registry readers once per registry generation rather
/// than snapshotting: every counter a rule can read (any name ending in a
/// watched suffix, and every fabric.link.*.bytes_tx) plus every
/// busy_channels/send_backlog gauge. A check on an unchanged generation
/// only reads those and allocates nothing unless a rule fires; a changed
/// generation rebinds first, so a pull callback removed by its owner's
/// destructor is never called.
///
/// Events accumulate for render_summary() (one row per rule/subject, wired
/// into the chaos scenario reports) and optionally invoke an on_fire hook,
/// which chaos uses to drop trace instants at the moment of detection.
struct WatchdogConfig {
  /// Watch-window length the caller promises to check() at; occupancy is
  /// computed against the actual spacing of check() calls.
  std::int64_t window_ns = 500'000;
  /// Serialization cost of the watched links; 0 disables the link-pegged
  /// rule (occupancy cannot be computed without it).
  double link_ns_per_byte = 0.0;
  double link_occupancy_threshold = 0.99;
  /// spin-poll rule: fire when an endpoint's wait_wakeups grows by more
  /// than this in one window while its messages_handled + returns_handled
  /// did not move. A healthy server wakes at most once per message; 64
  /// progress-free wakeups in a window is a busy loop. 0 disables.
  std::uint64_t spin_wakeup_threshold = 64;
};

struct WatchdogEvent {
  std::int64_t at_ns = 0;
  std::string rule;
  std::string subject;
  std::string detail;
};

class Watchdog {
 public:
  Watchdog(const MetricsRegistry& reg, WatchdogConfig cfg)
      : reg_(&reg), cfg_(cfg) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void set_on_fire(std::function<void(const WatchdogEvent&)> hook) {
    on_fire_ = std::move(hook);
  }

  /// Evaluates every rule over the window since the previous check. The
  /// first call only establishes the baseline.
  void check(std::int64_t now_ns);

  const std::vector<WatchdogEvent>& events() const { return events_; }
  const WatchdogConfig& config() const { return cfg_; }

  /// One row per (rule, subject): windows fired, first and last firing
  /// time. Returns "" if nothing ever fired.
  std::string render_summary() const;

 private:
  /// A watched counter: its reader, its value at the previous check and
  /// its growth over the window that check closed. The name is owned so
  /// that values carry over by name when the registry changes.
  struct Tally {
    std::string name;
    CounterReader reader;
    std::uint64_t last = 0;
    std::uint64_t delta = 0;
  };
  /// One rule bound to one subject: the gauge (channel-stall, frame-loiter)
  /// or tally (spin-poll, link-pegged) that arms it, and the tallies whose
  /// growth counts as progress (kNone where the subject has no such
  /// counter).
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Watch {
    std::string subject;
    GaugeReader level;
    std::size_t trigger = kNone;
    std::array<std::size_t, 4> progress{kNone, kNone, kNone, kNone};
  };

  void bind();
  std::uint64_t progress(const Watch& w) const;
  void fire(std::int64_t now_ns, const char* rule, const std::string& subject,
            const char* detail);

  const MetricsRegistry* reg_;
  WatchdogConfig cfg_;
  std::function<void(const WatchdogEvent&)> on_fire_;
  bool have_base_ = false;
  std::int64_t last_ns_ = 0;
  std::uint64_t generation_ = 0;  ///< registry generation of the bindings
  std::vector<Tally> tallies_;    ///< sorted by name
  std::vector<Watch> stalls_, loiters_, spins_, links_;
  std::vector<WatchdogEvent> events_;
};

}  // namespace vnet::obs
