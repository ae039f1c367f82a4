#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vnet::obs {

/// Simulated-time tracing (DESIGN.md §7): typed spans and instants stamped
/// on the simulation clock, exportable as Chrome trace_event JSON so a
/// whole run opens in Perfetto / chrome://tracing.
///
/// Every recording site goes through the VNET_TRACE_* macros below. When
/// the build compiles tracing out (VNET_OBS_TRACING=0, see the VNET_TRACING
/// CMake option) the macros expand to nothing — argument expressions are
/// not even evaluated — so instrumentation is zero-cost. When compiled in,
/// a disabled tracer (the default) costs one branch per site.

struct TraceArg {
  const char* key;
  std::int64_t value;
};

struct TraceEvent {
  char ph = 'i';            ///< 'X' complete span, 'i' instant
  std::int64_t ts_ns = 0;   ///< event (or span start) time
  std::int64_t dur_ns = 0;  ///< span length ('X' only)
  int pid = 0;              ///< Perfetto process row — we use the node id
  int tid = 0;              ///< Perfetto thread row within the node
  const char* cat = "";     ///< must point at a string literal
  std::string name;
  std::vector<TraceArg> args;
};

/// Event storage is a bounded ring (overwrite-oldest): long chaos campaigns
/// with tracing left on keep the most recent `capacity()` events instead of
/// growing without limit, and every overwritten event bumps dropped() —
/// exported by sim::Engine as the `obs.trace.dropped` counter.
class Tracer {
 public:
  using Clock = std::function<std::int64_t()>;
  using Args = std::initializer_list<TraceArg>;

  /// Default ring capacity; ~64k events is minutes of NIC-level tracing.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The simulated-time source; sim::Engine installs its own clock.
  void set_clock(Clock c) { clock_ = std::move(c); }
  /// Runtime switch, off by default. Compiled-in sites check this first.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::int64_t now() const { return clock_ ? clock_() : 0; }

  /// Records a point event at the current simulated time.
  void instant(const char* cat, std::string name, int pid = 0, int tid = 0,
               Args args = {});

  /// Records a span from `start_ns` to the current simulated time.
  void complete(const char* cat, std::string name, std::int64_t start_ns,
                int pid = 0, int tid = 0, Args args = {});

  /// Perfetto row labels (chrome metadata events).
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  /// Retained events in chronological (recording) order. Materializes a
  /// copy: the ring's physical layout wraps once it has overwritten.
  std::vector<TraceEvent> events() const;
  std::size_t capacity() const { return capacity_; }
  /// Shrinks or grows the ring; shrinking discards the oldest retained
  /// events (counted as dropped).
  void set_capacity(std::size_t cap);
  /// Lifetime count of events overwritten by the ring (survives clear()).
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Chrome trace_event JSON ("traceEvents" array form, ts/dur in us),
  /// streamed through obs::json::Writer.
  std::string chrome_trace_json() const;

 private:
  struct Meta {
    int pid = 0;
    int tid = 0;
    bool thread = false;
    std::string name;
  };

  void push(TraceEvent e);
  template <typename Fn>
  void for_each_event(Fn&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) fn(ring_[(head_ + i) % n]);
  }

  bool enabled_ = false;
  Clock clock_;
  // Bounded ring: fills linearly to capacity_, then head_ marks the oldest
  // slot and each push overwrites it.
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t dropped_ = 0;
  std::vector<Meta> meta_;
};

}  // namespace vnet::obs

// Compile-time gate. The VNET_TRACING CMake option defines
// VNET_OBS_TRACING=1; without it the macros vanish entirely.
#ifndef VNET_OBS_TRACING
#define VNET_OBS_TRACING 0
#endif

#if VNET_OBS_TRACING
// Variadic so brace-initialized args lists ({{"k", v}, ...}) pass through
// the preprocessor unharmed.
#define VNET_TRACE_INSTANT(tracer, ...)                  \
  do {                                                   \
    ::vnet::obs::Tracer& vnet_obs_tr_ = (tracer);        \
    if (vnet_obs_tr_.enabled()) {                        \
      vnet_obs_tr_.instant(__VA_ARGS__);                 \
    }                                                    \
  } while (0)
#define VNET_TRACE_COMPLETE(tracer, ...)                 \
  do {                                                   \
    ::vnet::obs::Tracer& vnet_obs_tr_ = (tracer);        \
    if (vnet_obs_tr_.enabled()) {                        \
      vnet_obs_tr_.complete(__VA_ARGS__);                \
    }                                                    \
  } while (0)
#else
#define VNET_TRACE_INSTANT(...) ((void)0)
#define VNET_TRACE_COMPLETE(...) ((void)0)
#endif
