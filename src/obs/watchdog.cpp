#include "obs/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <string_view>

namespace vnet::obs {

namespace {

constexpr std::string_view kWakeupsSuffix = ".wait_wakeups";
constexpr std::string_view kBusySuffix = ".busy_channels";
constexpr std::string_view kBacklogSuffix = ".send_backlog";
constexpr std::string_view kLinkPrefix = "fabric.link.";
constexpr std::string_view kBytesTxSuffix = ".bytes_tx";

// Per rule, the counters (by suffix on the subject) whose growth is
// progress.
constexpr std::string_view kStallProgress[] = {
    ".acks_received", ".nacks_received", ".msgs_completed",
    ".local_deliveries"};
constexpr std::string_view kLoiterProgress[] = {
    ".data_sent", ".retransmissions", ".local_deliveries",
    ".returned_to_sender"};
constexpr std::string_view kSpinProgress[] = {".messages_handled",
                                              ".returns_handled"};

bool is_link_bytes(std::string_view name) {
  return name.starts_with(kLinkPrefix) && name.ends_with(kBytesTxSuffix);
}

// Whether any rule can read this counter.
bool watched(std::string_view name) {
  auto any = [name](const auto& suffixes) {
    return std::any_of(
        std::begin(suffixes), std::end(suffixes),
        [name](std::string_view s) { return name.ends_with(s); });
  };
  return name.ends_with(kWakeupsSuffix) || is_link_bytes(name) ||
         any(kStallProgress) || any(kLoiterProgress) || any(kSpinProgress);
}

std::string_view strip(std::string_view name, std::string_view suffix) {
  return name.substr(0, name.size() - suffix.size());
}

}  // namespace

void Watchdog::bind() {
  generation_ = reg_->generation();

  // Every counter a rule can read, each carrying its value at the previous
  // check; one that was not bound then grows from 0. Both lists are sorted
  // by name, so one merge pass pairs them up.
  std::vector<Tally> tallies;
  std::size_t old = 0;
  for (const CounterReader& r : reg_->counter_readers()) {
    if (!watched(r.name)) continue;
    while (old < tallies_.size() && tallies_[old].name < r.name) ++old;
    const bool carried = old < tallies_.size() && tallies_[old].name == r.name;
    tallies.push_back(
        {std::string(r.name), r, carried ? tallies_[old].last : 0, 0});
  }
  tallies_ = std::move(tallies);

  auto find = [this](std::string_view subject, std::string_view suffix) {
    std::string name(subject);
    name += suffix;
    auto it = std::lower_bound(
        tallies_.begin(), tallies_.end(), name,
        [](const Tally& t, const std::string& n) { return t.name < n; });
    return it != tallies_.end() && it->name == name
               ? static_cast<std::size_t>(it - tallies_.begin())
               : kNone;
  };
  auto watch = [&](std::string_view subject, auto& suffixes) {
    Watch w;
    w.subject = subject;
    for (std::size_t i = 0; i < std::size(suffixes); ++i) {
      w.progress[i] = find(subject, suffixes[i]);
    }
    return w;
  };

  stalls_.clear();
  loiters_.clear();
  for (const GaugeReader& g : reg_->gauge_readers()) {
    if (g.name.ends_with(kBusySuffix)) {
      stalls_.push_back(watch(strip(g.name, kBusySuffix), kStallProgress));
      stalls_.back().level = g;
    } else if (g.name.ends_with(kBacklogSuffix)) {
      loiters_.push_back(
          watch(strip(g.name, kBacklogSuffix), kLoiterProgress));
      loiters_.back().level = g;
    }
  }
  spins_.clear();
  links_.clear();
  for (std::size_t i = 0; i < tallies_.size(); ++i) {
    const std::string& name = tallies_[i].name;
    if (name.ends_with(kWakeupsSuffix)) {
      spins_.push_back(watch(strip(name, kWakeupsSuffix), kSpinProgress));
      spins_.back().trigger = i;
    }
    if (is_link_bytes(name)) {
      Watch w;
      w.subject = strip(name, kBytesTxSuffix);
      w.trigger = i;
      links_.push_back(std::move(w));
    }
  }
}

std::uint64_t Watchdog::progress(const Watch& w) const {
  std::uint64_t sum = 0;
  for (std::size_t i : w.progress) {
    if (i != kNone) sum += tallies_[i].delta;
  }
  return sum;
}

void Watchdog::fire(std::int64_t now_ns, const char* rule,
                    const std::string& subject, const char* detail) {
  events_.push_back({now_ns, rule, subject, detail});
  if (on_fire_) on_fire_(events_.back());
}

void Watchdog::check(std::int64_t now_ns) {
  // Rebind before any read: a changed generation may mean a pull callback
  // this watchdog holds was removed with its component.
  if (!have_base_ || reg_->generation() != generation_) bind();
  for (Tally& t : tallies_) {
    const std::uint64_t v = t.reader.read();
    t.delta = v >= t.last ? v - t.last : 0;
    t.last = v;
  }
  const std::int64_t window_ns = now_ns - last_ns_;
  last_ns_ = now_ns;
  if (!have_base_) {
    have_base_ = true;
    return;
  }
  char detail[128];

  // channel-stall: busy channels, zero transport-level progress.
  for (const Watch& w : stalls_) {
    const double level = w.level.read();
    if (level <= 0 || progress(w) != 0) continue;
    std::snprintf(detail, sizeof(detail),
                  "%.0f busy channel(s), no ack/completion in window", level);
    fire(now_ns, "channel-stall", w.subject, detail);
  }

  // frame-loiter: unfinished send descriptors, nothing transmitted at all.
  for (const Watch& w : loiters_) {
    const double level = w.level.read();
    if (level <= 0 || progress(w) != 0) continue;
    std::snprintf(detail, sizeof(detail),
                  "%.0f pending descriptor(s), no transmission in window",
                  level);
    fire(now_ns, "frame-loiter", w.subject, detail);
  }

  // spin-poll: an endpoint's waits kept completing with zero consumption.
  if (cfg_.spin_wakeup_threshold > 0) {
    for (const Watch& w : spins_) {
      const std::uint64_t wakeups = tallies_[w.trigger].delta;
      if (wakeups <= cfg_.spin_wakeup_threshold || progress(w) != 0) continue;
      std::snprintf(detail, sizeof(detail),
                    "%llu wait wakeups, nothing consumed in window",
                    static_cast<unsigned long long>(wakeups));
      fire(now_ns, "spin-poll", w.subject, detail);
    }
  }

  // link-pegged: one link busy for (near) the whole window.
  if (cfg_.link_ns_per_byte > 0 && window_ns > 0) {
    for (const Watch& w : links_) {
      const double occupancy =
          static_cast<double>(tallies_[w.trigger].delta) *
          cfg_.link_ns_per_byte / static_cast<double>(window_ns);
      if (occupancy < cfg_.link_occupancy_threshold) continue;
      std::snprintf(detail, sizeof(detail), "occupancy %.1f%%",
                    occupancy * 100.0);
      fire(now_ns, "link-pegged", w.subject, detail);
    }
  }
}

std::string Watchdog::render_summary() const {
  if (events_.empty()) return {};
  struct Agg {
    std::uint64_t windows = 0;
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;
    std::string detail;
  };
  std::map<std::string, Agg> by_key;  // "rule subject" -> agg
  for (const WatchdogEvent& e : events_) {
    Agg& a = by_key[e.rule + " " + e.subject];
    if (a.windows == 0) a.first_ns = e.at_ns;
    ++a.windows;
    a.last_ns = e.at_ns;
    a.detail = e.detail;  // keep the most recent
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %-28s %8s %10s %10s  %s\n",
                "rule", "subject", "windows", "first_ms", "last_ms",
                "detail");
  out += line;
  for (const auto& [key, a] : by_key) {
    const std::size_t space = key.find(' ');
    std::snprintf(line, sizeof(line), "%-14s %-28s %8llu %10.2f %10.2f  %s\n",
                  key.substr(0, space).c_str(),
                  key.substr(space + 1).c_str(),
                  static_cast<unsigned long long>(a.windows),
                  static_cast<double>(a.first_ns) / 1e6,
                  static_cast<double>(a.last_ns) / 1e6, a.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace vnet::obs
