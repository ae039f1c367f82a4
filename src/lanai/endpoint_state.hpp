#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lanai/frame.hpp"
#include "sim/time.hpp"

namespace vnet::lanai {

/// One row of an endpoint's translation table (§3.1): maps a small integer
/// index to a (node, endpoint, key) triple. The protected part of the
/// system — the NIC — stamps outgoing messages with the key; the receiving
/// NIC verifies it against the destination endpoint's tag.
struct Translation {
  bool valid = false;
  NodeId node = myrinet::kInvalidNode;
  EpId ep = kInvalidEp;
  std::uint64_t key = 0;
};

/// A message the application has written into an endpoint's send queue.
/// The transport fields at the bottom are owned by the NIC while the
/// message is in flight.
struct SendDescriptor {
  /// For requests: index into the source endpoint's translation table.
  std::uint32_t dest_index = 0;
  /// For replies: the requester's address, taken from the ReplyToken.
  ReplyToken reply_to;
  MsgBody body;
  std::uint64_t msg_id = 0;
  /// Simulator metadata: the message's span flight (null if not sampled).
  obs::SpanHandle span;

  // --- transport progress (NIC-owned) ---
  enum class FragState : std::uint8_t { kUnsent = 0, kInFlight, kAcked };

  /// Per-fragment state array with inline storage for short transfers.
  /// Fragments can be unbound from channels and rebound out of order
  /// (§5.1), so a counter is not enough; messages up to kInline fragments
  /// (16 KB at the default 4 KB payload) track state without touching the
  /// heap, so steady-state sends allocate nothing.
  class FragStates {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    void assign(std::uint32_t n, FragState v) {
      size_ = n;
      if (n > kInline) {
        spill_.assign(n, v);
      } else {
        spill_.clear();
        inline_.fill(v);
      }
    }
    FragState& operator[](std::size_t i) {
      return size_ <= kInline ? inline_[i] : spill_[i];
    }
    FragState operator[](std::size_t i) const {
      return size_ <= kInline ? inline_[i] : spill_[i];
    }
    const FragState* begin() const {
      return size_ <= kInline ? inline_.data() : spill_.data();
    }
    const FragState* end() const { return begin() + size_; }

   private:
    static constexpr std::size_t kInline = 4;
    std::array<FragState, kInline> inline_{};
    std::uint32_t size_ = 0;
    std::vector<FragState> spill_;
  };

  std::uint32_t frag_count = 1;
  std::uint32_t frags_acked = 0;
  FragStates frag_state;
  sim::Time first_sent_at = -1;  ///< for the unreachable timeout
  bool returned = false;         ///< undeliverable; awaiting queue sweep

  bool complete() const { return frags_acked == frag_count; }
  bool finished() const { return returned || complete(); }

  bool has_unsent() const {
    if (finished()) return false;
    if (frag_state.empty()) return true;  // nothing transmitted yet
    for (FragState s : frag_state) {
      if (s == FragState::kUnsent) return true;
    }
    return false;
  }

  /// First fragment not yet handed to a channel, or -1 if none.
  /// Lazily initializes the per-fragment state array.
  int next_unsent() {
    if (frag_state.empty()) {
      frag_state.assign(frag_count, FragState::kUnsent);
    }
    for (std::size_t i = 0; i < frag_state.size(); ++i) {
      if (frag_state[i] == FragState::kUnsent) return static_cast<int>(i);
    }
    return -1;
  }
};

/// A delivered message awaiting the application (one receive-queue entry).
struct RecvEntry {
  MsgBody body;
  ReplyToken reply_to;
  NodeId src_node = myrinet::kInvalidNode;
  EpId src_ep = kInvalidEp;
  /// Sender-side message id (unique per source endpoint); together with
  /// (src_node, src_ep) this names the message end to end, which is what
  /// the chaos delivery ledger keys on.
  std::uint64_t msg_id = 0;
  sim::Time arrived_at = 0;
  /// Simulator metadata: the message's span flight (null if not sampled).
  obs::SpanHandle span;
};

/// Key identifying a remote source endpoint (node, ep) in dedup windows.
inline std::uint64_t source_key(NodeId node, EpId ep) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
         static_cast<std::uint32_t>(ep);
}

/// Recently delivered message ids from one source endpoint, for
/// exactly-once delivery across channel rebinds and NIC reboots.
struct DeliveredWindow {
  static constexpr std::size_t kCapacity = 128;
  std::deque<std::uint64_t> order;
  std::unordered_set<std::uint64_t> set;
  void remember(std::uint64_t id) {
    if (!set.insert(id).second) return;
    order.push_back(id);
    if (order.size() > kCapacity) {
      set.erase(order.front());
      order.pop_front();
    }
  }
  bool contains(std::uint64_t id) const { return set.count(id) != 0; }
};

/// In-progress multi-fragment message at the receiver.
struct Reassembly {
  RecvEntry entry;
  std::unordered_set<std::uint32_t> frags;
  bool is_request = true;
};

/// (src_node, src_ep, msg_id) key for the reassembly table.
using ReassemblyKey = std::tuple<NodeId, EpId, std::uint64_t>;

/// The hardware-visible endpoint: message queues and associated state that
/// reside beneath the programming interface (§3). This exact object is what
/// migrates between host memory and a NIC endpoint frame; in the simulation
/// the *object* stays put and `frame` records where it currently "lives",
/// with the residency-dependent costs charged by the accessing layer.
struct EndpointState {
  NodeId node = myrinet::kInvalidNode;
  EpId id = kInvalidEp;

  /// Protection tag that senders' keys must match for delivery (§3.1).
  std::uint64_t tag = 0;

  /// NIC frame index, or -1 while non-resident.
  int frame = -1;
  bool resident() const { return frame >= 0; }

  std::vector<Translation> translations;

  // Queues; depths are enforced by the writers (see NicConfig).
  std::deque<SendDescriptor> send_queue;
  std::deque<RecvEntry> recv_requests;
  std::deque<RecvEntry> recv_replies;

  // Receive-queue slots reserved by in-progress multi-fragment messages
  // (NIC-owned; counted against the queue depths).
  std::uint32_t nic_reserved_requests = 0;
  std::uint32_t nic_reserved_replies = 0;

  // Message-level receive state. This lives with the endpoint — it pages to
  // host memory with it and survives a NIC reboot — unlike the channel
  // sequencing state, which is NIC-SRAM-volatile and rebuilt by the
  // self-synchronizing re-initialization of §5.1. Keeping the dedup window
  // here is what preserves exactly-once delivery across a receiver reboot:
  // a retransmission whose ack was lost pre-reboot is still recognized.
  std::unordered_map<std::uint64_t, DeliveredWindow> delivered_from;
  std::map<ReassemblyKey, Reassembly> reassembly;

  // --- statistics ---
  std::uint64_t msgs_sent = 0;        ///< fully acknowledged
  std::uint64_t msgs_delivered = 0;   ///< written into our receive queues
  std::uint64_t msgs_returned = 0;    ///< returned to sender
  std::uint64_t recv_overruns = 0;    ///< arrivals nacked for a full queue
  std::uint64_t next_msg_id = 1;

  // --- upcalls into the layers above (wired by am::Endpoint / driver) ---
  /// A message was written into a receive queue.
  std::function<void()> on_arrival;
  /// A send completed (acked) or space appeared in the send queue.
  std::function<void()> on_send_progress;
  /// A message came back undeliverable; the application's handler decides
  /// whether to abort or re-issue (§3.2).
  std::function<void(SendDescriptor, NackReason)> on_return_to_sender;

  std::uint64_t alloc_msg_id() { return next_msg_id++; }
};

}  // namespace vnet::lanai
