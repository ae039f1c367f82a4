#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "am/message.hpp"
#include "host/host.hpp"
#include "obs/metrics.hpp"
#include "lanai/endpoint_state.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vnet::am {

/// Global endpoint name: opaque to applications (§3.1); obtained from
/// Endpoint::name() and distributed by any rendezvous mechanism.
struct Name {
  NodeId node = myrinet::kInvalidNode;
  EpId ep = lanai::kInvalidEp;
  /// The endpoint's protection tag; a sender must present it as its key.
  std::uint64_t tag = 0;
  bool valid() const { return node != myrinet::kInvalidNode; }
};

/// Endpoint state transitions an application can sensitize to (§3.3).
///
/// Events are *level-triggered*: a wait returns while the condition holds,
/// not only on its edge. That makes a blanket mask a spin-poll hazard —
/// kEventSendSpace is true almost always, so a loop waiting on "anything"
/// re-wakes forever without consuming work. Waits therefore take an
/// explicit mask naming exactly the conditions the loop consumes.
enum EventMask : std::uint32_t {
  kEventNone = 0,
  kEventReceive = 1u << 0,    ///< a message arrived in a receive queue
  kEventSendSpace = 1u << 1,  ///< send-queue space / credit became available
  kEventReturned = 1u << 2,   ///< a message came back undeliverable
  /// What a serving/draining loop consumes: deliveries and returns. This
  /// is the mask for "wake me when poll() would find something".
  kEventArrivals = kEventReceive | kEventReturned,
};

/// The user-level communication endpoint — the core abstraction of the
/// paper (§3). Wraps the hardware-visible lanai::EndpointState managed by
/// the host's segment driver, and layers on: handler dispatch, endpoint-
/// relative naming via the translation table, user-level credit flow
/// control, the return-to-sender error model, and thread-based events.
///
/// All operations take the calling HostThread and charge its CPU for the
/// library and PIO work — these charges are exactly the o_s / o_r
/// overheads of the LogP characterization (Fig 3).
class MessageProbe;

class Endpoint {
 public:
  using Handler = std::function<void(Endpoint&, const Message&)>;
  using UndeliverableHandler = std::function<void(Endpoint&, ReturnedMessage)>;

  /// Installs a process-wide message-accounting probe (see am/probe.hpp);
  /// nullptr uninstalls. One probe observes all endpoints — it is the
  /// attachment point for the chaos campaign's delivery ledger.
  static void set_probe(MessageProbe* p) { probe_ = p; }
  static MessageProbe* probe() { return probe_; }

  /// Creates an endpoint on `host`. Shared endpoints serialize operations
  /// from concurrent threads (with a small locking cost); exclusive ones
  /// avoid that overhead (§3.3).
  static sim::Task<std::unique_ptr<Endpoint>> create(host::HostThread& t,
                                                     std::uint64_t tag,
                                                     bool shared = false);

  /// Detaches the NIC upcalls: an Endpoint object may go out of scope
  /// while late retransmissions still arrive for its endpoint state.
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Destroys the endpoint, synchronizing with the NIC (quiesces in-flight
  /// traffic). The Endpoint object must not be used afterwards.
  sim::Task<> destroy(host::HostThread& t);

  Name name() const { return Name{state_->node, state_->id, state_->tag}; }
  host::Host& host() { return *host_; }
  lanai::EndpointState& state() { return *state_; }

  // ---- naming & protection (§3.1) ----

  /// Binds translation-table `index` to a peer endpoint, presenting the
  /// peer's tag as our key.
  void map(std::uint32_t index, const Name& peer);
  void map_raw(std::uint32_t index, NodeId node, EpId ep, std::uint64_t key);
  void unmap(std::uint32_t index);

  // ---- handlers ----

  void set_handler(std::uint8_t index, Handler h);
  void set_undeliverable_handler(UndeliverableHandler h) {
    undeliverable_ = std::move(h);
  }

  // ---- events & threads (§3.3) ----

  /// Blocks the calling thread until an event enabled in `mask` is
  /// pending. The mask is explicit per wait — there is no endpoint-wide
  /// default — and must name a real subset of conditions: an empty or
  /// all-bits mask is rejected (debug assert), because kEventSendSpace is
  /// level-triggered and a blanket mask degenerates into a spin-poll.
  sim::Task<> wait_events(host::HostThread& t, std::uint32_t mask);
  /// Like wait_events() with a timeout; true if an event is pending.
  sim::Task<bool> wait_events_for(host::HostThread& t, std::uint32_t mask,
                                  sim::Duration d);

  // ---- communication ----

  /// Sends a short request through translation-table entry `dest_index`
  /// carrying up to four 64-bit arguments. Blocks (polling, consuming CPU)
  /// while the send queue is full or the credit window is exhausted.
  /// (Scalar arguments rather than an initializer list: the values must
  /// live in the coroutine frame across suspension.)
  sim::Task<> request(host::HostThread& t, std::uint32_t dest_index,
                      std::uint8_t handler, std::uint64_t a0 = 0,
                      std::uint64_t a1 = 0, std::uint64_t a2 = 0,
                      std::uint64_t a3 = 0);

  /// Sends a bulk-transfer request of `bulk_bytes` (fragmented by the
  /// transport as needed). `data` optionally carries real payload bytes.
  sim::Task<> request_bulk(
      host::HostThread& t, std::uint32_t dest_index, std::uint8_t handler,
      std::uint32_t bulk_bytes,
      std::shared_ptr<const std::vector<std::uint8_t>> data = nullptr,
      std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
      std::uint64_t a3 = 0);

  /// Sends an explicit reply to a received request.
  sim::Task<> reply(host::HostThread& t, const Message& to,
                    std::uint8_t handler, std::uint64_t a0 = 0,
                    std::uint64_t a1 = 0, std::uint64_t a2 = 0,
                    std::uint64_t a3 = 0, std::uint32_t bulk_bytes = 0,
                    std::shared_ptr<const std::vector<std::uint8_t>> data =
                        nullptr);

  /// Drains up to `max` pending messages/returns, invoking handlers on the
  /// calling thread. Returns the number of messages processed.
  sim::Task<std::size_t> poll(host::HostThread& t, std::size_t max = 16);

  /// True if a poll would find work without doing any.
  bool poll_would_find_work() const;

  /// True if any event in `mask` is currently pending (the condition
  /// wait_events()/wait_events_for() block on).
  bool has_event(std::uint32_t mask) const {
    return pending_events(mask) != 0;
  }

  /// Registers an additional condition variable notified on every endpoint
  /// event — the hook bundles use to wait on any member endpoint (§3.3).
  void set_event_sink(sim::CondVar* sink) { event_sink_ = sink; }

  // ---- flow control ----

  void set_flow_control(bool on) { flow_control_ = on; }
  int credits_in_use() const { return outstanding_requests_; }
  int credit_limit() const { return credit_limit_; }

  // Statistics live in the engine's metric registry under
  // `host.<node>.ep.<id>.*` (see obs/metrics.hpp); snapshot that.

 private:
  Endpoint(host::Host& host, lanai::EndpointState* state, bool shared);

  sim::Task<> send_common(host::HostThread& t, lanai::SendDescriptor desc,
                          bool is_request);
  sim::Task<> enqueue_reply_locked(host::HostThread& t,
                                   lanai::SendDescriptor d);
  sim::Duration send_charge() const;
  sim::Duration recv_charge() const;
  sim::Task<> lock(host::HostThread& t);
  void unlock();
  /// The subset of `mask` currently pending.
  std::uint32_t pending_events(std::uint32_t mask) const;
  bool send_space_available() const;
  void on_arrival();
  void on_send_progress();
  void on_returned(lanai::SendDescriptor d, lanai::NackReason r);
  bool resident() const { return state_->resident(); }

  host::Host* host_;
  lanai::EndpointState* state_;
  bool shared_;
  sim::Mutex mutex_;
  sim::CondVar events_;

  std::vector<Handler> handlers_;
  UndeliverableHandler undeliverable_;
  std::deque<ReturnedMessage> returned_;

  bool flow_control_ = true;
  int credit_limit_;
  int outstanding_requests_ = 0;

  /// Registry-backed counters under `host.<node>.ep.<id>.*`.
  struct EpCounters {
    obs::Counter requests_sent;
    obs::Counter replies_sent;
    obs::Counter credit_replies_sent;
    obs::Counter messages_handled;
    obs::Counter returns_handled;
    obs::Counter send_stalls;
    /// wait_events()/wait_events_for() completions that found an event
    /// pending. The watchdog's spin-poll rule compares its growth against
    /// messages_handled + returns_handled: wakeups without progress means
    /// a loop is waiting on a condition it never consumes.
    obs::Counter wait_wakeups;
  };

  bool destroyed_ = false;
  sim::CondVar* event_sink_ = nullptr;
  EpCounters counters_;

  inline static MessageProbe* probe_ = nullptr;
};

}  // namespace vnet::am
