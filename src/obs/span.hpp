#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vnet::obs {

/// Causal span capture (DESIGN.md §12) and the latency attribution derived
/// from it (§8).
///
/// SpanRecorder is the simulator's one per-message recorder. Each sampled
/// message keeps its full ordered boundary vector (plus retransmission /
/// return-to-sender edges) as one SpanTrace, parked in a fixed-size
/// per-endpoint ring; that joint is what answers "which stage made *this*
/// slow message slow". When a trace completes, its critical path is also
/// folded into the per-endpoint `host.<n>.ep.<e>.attr.<stage>` histograms,
/// the aggregate LogP decomposition of the paper's Figure 3 (see
/// summarize_attr / render_attr_report).
///
/// The span model is a degenerate DAG: one root span per message whose
/// children are the eight pipeline stages chained parent→child in boundary
/// order, with retransmit edges looping back into the tx stages and a
/// return-to-sender edge terminating the chain early. Because the chain is
/// linear per message (fragments of one message serialize through each
/// boundary and stamps are first-wins), the critical path through the DAG
/// is exactly the telescoping walk over *present* boundaries — see
/// SpanTrace::critical_path().
///
/// obs depends on nothing above it: timestamps are plain nanosecond
/// integers supplied by the stamping layers (am, lanai), and the recorder
/// is reached through sim::Engine (one per engine shard).

/// The nine pipeline boundaries of one message, in causal order. kGateOpen
/// splits the doorbell→pickup gap into doorbell-coalesce wait vs. tx queue
/// wait, the two queues of the batched datapath (§11).
enum class SpanPoint : unsigned {
  kEnqueue = 0,  ///< application began writing the send descriptor
  kDoorbell,     ///< host finished the descriptor write and rang the NIC
  kGateOpen,     ///< doorbell-coalesce gate forwarded the ring to firmware
  kNicPickup,    ///< NIC tx service picked the descriptor up
  kWireInject,   ///< first fragment handed to the fabric
  kWireDeliver,  ///< last fragment delivered by the final hop
  kRxDeposit,    ///< NIC deposited the message in the receive queue
  kHandlerWake,  ///< polling thread dequeued the message
  kHandlerDone,  ///< application handler returned
};

inline constexpr unsigned kSpanPointCount = 9;
/// Stage `i` is the interval from boundary `i` to boundary `i+1`.
inline constexpr unsigned kSpanStageCount = kSpanPointCount - 1;

/// Figure 3's LogP stages: the `attr.<stage>` histograms that every complete
/// trace folds into. os = host_enqueue, nic_tx_wait = doorbell_gate +
/// tx_queue, nic_tx = tx_service, wire = wire, nic_rx = rx_service, wake =
/// wake, or = handler; an eighth histogram, attr.e2e, holds end-to-end.
inline constexpr unsigned kAttrStageCount = 7;

/// Name of stage `i`: "host_enqueue", "doorbell_gate", "tx_queue",
/// "tx_service", "wire", "rx_service", "wake", "handler".
const char* span_stage_name(unsigned i);

/// Queue-wait vs. service-time split: true for the stages where the
/// message sits in a queue waiting for an actor (doorbell_gate, tx_queue,
/// wake), false where an actor is actively working on it.
bool span_stage_is_wait(unsigned i);

/// An auxiliary causal edge hanging off a span: a retransmission re-enters
/// the tx stages, a return-to-sender terminates the chain at the source.
struct SpanEdge {
  enum class Kind : std::uint8_t { kRetransmit, kReturnToSender };
  Kind kind = Kind::kRetransmit;
  std::int64_t at_ns = 0;
  std::int32_t arg = 0;  ///< retry ordinal / return reason

  bool operator==(const SpanEdge&) const = default;
};

/// One sampled message's complete causal record.
struct SpanTrace {
  /// Edges kept inline so the per-endpoint ring stays fixed-size; beyond
  /// this the trace keeps counting (retransmits) but stops storing.
  static constexpr unsigned kMaxEdges = 4;

  std::uint32_t node = 0;  ///< source node
  std::uint32_t ep = 0;    ///< source endpoint
  std::uint64_t msg_id = 0;
  std::array<std::int64_t, kSpanPointCount> at;  ///< -1 = not crossed
  std::array<SpanEdge, kMaxEdges> edges{};
  std::uint8_t edge_count = 0;
  std::uint16_t retransmits = 0;
  std::uint8_t wire_hops = 0;  ///< link hops of the delivering packet
  bool returned = false;       ///< transport returned it to the sender
  bool complete = false;       ///< kHandlerDone was reached

  /// End-to-end latency: last present boundary minus first present
  /// boundary (0 if fewer than two boundaries were stamped).
  std::int64_t e2e_ns() const;

  /// Critical-path extraction: walks the present boundaries in order and
  /// attributes the time between each consecutive present pair to the
  /// stage that *starts* at the earlier boundary (a gap spanning missing
  /// boundaries — e.g. local delivery skips the wire — charges wholly to
  /// the stage where the message actually was). The returned per-stage
  /// nanoseconds therefore telescope: they sum to e2e_ns() exactly, which
  /// is what makes the tail report's reconciliation an identity rather
  /// than an estimate.
  std::array<std::int64_t, kSpanStageCount> critical_path() const;

  bool operator==(const SpanTrace&) const = default;
};

class SpanRecorder;

/// A traced message's reference to its own flight: the recorder that began
/// it, the flight's slab slot, and that slot's generation at begin(). Null
/// when the message was not sampled. Messages carry it end to end as
/// simulator metadata with zero wire bytes (lanai::SendDescriptor → every
/// Frame built from it, retransmits included → lanai::RecvEntry), so every
/// stamp site names its flight directly — the trace-context idiom of
/// distributed tracing.
struct SpanHandle {
  SpanRecorder* rec = nullptr;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  explicit operator bool() const { return rec != nullptr; }
};

/// Flight recorder for spans: admission via a 1-in-N sampling knob,
/// first-wins boundary stamps (retransmission-safe), completed traces
/// committed to a fixed-size overwrite-oldest ring per source endpoint.
///
/// Flights live in a slab with a free list. A handle whose generation no
/// longer matches its slot (the flight finished, was returned, or clear()
/// dropped it) stamps nothing.
///
/// Sharded runs: a flight lives in the recorder of the shard that began it.
/// A stamp whose handle names another shard's recorder is queued in the
/// stamping recorder's outbox and applied by flush_outbox() at the next
/// window barrier (sim::ShardGroup). Only rx-side boundaries (kWireDeliver
/// onward) ever do this; edges and returns happen on the sender's shard.
class SpanRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  explicit SpanRecorder(MetricsRegistry& reg);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Sampling-rate knob: track one in every `n` sent messages. 0 disables
  /// tracking entirely (the default) — no message then carries a handle,
  /// so every stamp site costs one null test — and 1 tracks every message.
  void set_sample_interval(std::uint32_t n) {
    interval_ = n;
    skip_left_ = 0;  // first message after (re)enabling is tracked
  }
  std::uint32_t sample_interval() const { return interval_; }
  bool enabled() const { return interval_ != 0; }

  /// Per-endpoint ring capacity; applies to existing and future rings
  /// (shrinking discards oldest traces, counted as overwritten).
  void set_ring_capacity(std::size_t n);
  std::size_t ring_capacity() const { return ring_capacity_; }

  /// Admission at the kEnqueue boundary (`t_ns` may be earlier than "now":
  /// the caller learns the message id only after the descriptor write it
  /// is timing). Applies the sampling knob; returns the new flight's
  /// handle, or a null handle if the message is not tracked. Inline so the
  /// 63-in-64 skip path is a branch and a decrement — no call, no division.
  SpanHandle begin(std::uint32_t src_node, std::uint32_t src_ep,
                   std::uint64_t msg_id, std::int64_t t_ns) {
    if (interval_ == 0) return {};
    if (skip_left_ != 0) {
      --skip_left_;
      return {};
    }
    skip_left_ = interval_ - 1;
    return begin_slow(src_node, src_ep, msg_id, t_ns);
  }

  /// Records boundary `p` of the flight `h` names. Repeated stamps keep
  /// the first value (retransmissions re-cross kNicPickup/kWireInject; the
  /// span keeps first pickup / first inject and counts the retry as an
  /// edge instead). `hops` annotates the wire stage with the delivering
  /// packet's hop count (the maximum is kept). kHandlerDone is finish().
  void point(SpanHandle h, SpanPoint p, std::int64_t t_ns,
             std::uint8_t hops = 0) {
    if (!h) return;
    if (h.rec != this) {
      defer(h, p, t_ns, hops);
      return;
    }
    Flight* f = live_flight(h);
    if (f == nullptr) return;
    std::int64_t& at = f->t.at[static_cast<unsigned>(p)];
    if (at < 0) at = t_ns;
    if (hops > f->t.wire_hops) f->t.wire_hops = hops;
    if (p == SpanPoint::kHandlerDone) complete(*f, h.slot);
  }

  /// Final boundary: stamps kHandlerDone, folds the critical path into the
  /// source endpoint's attr.<stage> histograms, and commits the trace to
  /// its ring.
  void finish(SpanHandle h, std::int64_t t_ns) {
    point(h, SpanPoint::kHandlerDone, t_ns);
  }

  /// Hangs a causal edge off a tracked flight (kRetransmit bumps the
  /// retransmit counter even when the inline edge array is full).
  void edge(SpanHandle h, SpanEdge::Kind kind, std::int64_t t_ns,
            std::int32_t arg = 0) {
    if (h) edge_slow(h, kind, t_ns, arg);
  }

  /// Transport returned the message to its sender: records the edge and
  /// commits the (incomplete, returned) trace. It folds into no histogram,
  /// but the tail profiler *wants* it: returns explain tail mass.
  void drop_returned(SpanHandle h, std::int64_t t_ns,
                     std::int32_t reason = 0) {
    if (h) drop_slow(h, t_ns, reason);
  }

  /// Applies every stamp queued for other recorders' flights to its owner,
  /// in queue order, and empties the outbox. Call only when no shard is
  /// executing (a window barrier).
  void flush_outbox();

  std::size_t inflight() const { return live_; }
  std::uint64_t tracked() const { return tracked_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t overwritten() const { return overwritten_; }

  /// Every retained trace, endpoints in (node, ep) order and traces in
  /// commit order within an endpoint — deterministic given a
  /// deterministic simulation.
  std::vector<SpanTrace> collect() const;

  /// Drops retained traces and in-flight state (counters survive); every
  /// outstanding handle goes stale.
  void clear();

 private:
  struct Flight {
    SpanTrace t;
    std::uint32_t gen = 0;  ///< bumped whenever the slot is released
  };
  /// A stamp for another recorder's flight, held until the barrier.
  struct Deferred {
    SpanHandle h;
    std::int64_t t_ns = 0;
    SpanPoint p = SpanPoint::kEnqueue;
    std::uint8_t hops = 0;
  };
  struct EpRing {
    std::vector<SpanTrace> ring;
    std::size_t head = 0;  ///< oldest slot once the ring is full
    /// attr.<stage> histograms (the seven stages, then e2e), registered at
    /// the endpoint's first complete trace.
    std::array<Histogram, kAttrStageCount + 1> attr;
    bool attr_bound = false;
  };

  /// Messages sent but never finished would otherwise accumulate; cap the
  /// live flights.
  static constexpr std::size_t kMaxInflight = 1 << 16;

  SpanHandle begin_slow(std::uint32_t src_node, std::uint32_t src_ep,
                        std::uint64_t msg_id, std::int64_t t_ns);
  /// Queues a stamp for another recorder's flight in this one's outbox.
  void defer(SpanHandle h, SpanPoint p, std::int64_t t_ns, std::uint8_t hops);
  /// kHandlerDone reached: counts the completion and retires the flight.
  void complete(Flight& f, std::uint32_t slot);
  void edge_slow(SpanHandle h, SpanEdge::Kind kind, std::int64_t t_ns,
                 std::int32_t arg);
  void drop_slow(SpanHandle h, std::int64_t t_ns, std::int32_t reason);

  /// The live flight `h` names in this recorder, or nullptr if stale.
  Flight* live_flight(SpanHandle h) {
    Flight& f = flights_[h.slot];
    return f.gen == h.gen ? &f : nullptr;
  }
  /// Commits the flight's trace and returns its slot to the free list.
  void retire(Flight& f, std::uint32_t slot);
  void commit(SpanTrace&& t);
  void fold_attr(EpRing& r, const SpanTrace& t);

  MetricsRegistry* reg_;
  std::uint32_t interval_ = 0;
  std::uint32_t skip_left_ = 0;  ///< messages until the next admission
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  std::uint64_t tracked_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t overwritten_ = 0;
  Counter tracked_c_, completed_c_, overwritten_c_, returned_c_;
  std::vector<Flight> flights_;      ///< the slab; never shrinks
  std::vector<std::uint32_t> free_;  ///< released slots, reused LIFO
  std::size_t live_ = 0;
  std::vector<Deferred> outbox_;
  std::map<std::uint64_t, EpRing> rings_;  ///< keyed (node<<32)|ep, ordered
};

/// One row of the differential culprit table.
struct TailStageRow {
  double p50_ns = 0;   ///< mean critical-path ns over the median cohort
  double tail_ns = 0;  ///< mean critical-path ns over the slowest-1% cohort
  double delta_ns = 0;
  double share = 0;  ///< delta / (tail e2e mean − p50 e2e mean)
};

/// Differential tail profile over a set of complete traces: the slowest 1%
/// (by e2e, minimum one trace) against the median cohort (the p25–p75
/// band), stage by stage.
struct TailReport {
  std::size_t total = 0;       ///< complete traces analyzed
  std::size_t excluded = 0;    ///< incomplete / returned traces set aside
  std::size_t tail_count = 0;  ///< slowest-1% cohort size
  std::size_t p50_count = 0;   ///< median cohort size
  double e2e_p50_ns = 0;       ///< exact order statistics over `total`
  double e2e_p99_ns = 0;
  double e2e_p999_ns = 0;
  double e2e_max_ns = 0;
  double p50_e2e_mean_ns = 0;  ///< cohort e2e means…
  double tail_e2e_mean_ns = 0;
  double p50_stage_sum_ns = 0;  ///< …and cohort critical-path stage sums
  double tail_stage_sum_ns = 0;
  std::array<TailStageRow, kSpanStageCount> stages{};
  std::uint64_t p50_retransmits = 0;  ///< causal annotations per cohort
  std::uint64_t tail_retransmits = 0;
  double p50_wire_hops = 0;  ///< mean delivering-packet hop count
  double tail_wire_hops = 0;

  /// Stage indices ordered by descending tail-vs-p50 delta.
  std::array<unsigned, kSpanStageCount> culprits{};

  /// |cohort stage sum − cohort e2e mean| / e2e mean; an identity (0) by
  /// construction of critical_path(), recomputed as a self-check.
  double p50_recon_err() const;
  double tail_recon_err() const;
};

/// Builds the report; incomplete and returned traces are excluded from the
/// cohorts but counted in `excluded`.
TailReport tail_report(const std::vector<SpanTrace>& traces);

/// The human-readable culprit table, ending in a greppable
/// "top p99 culprits:" line (consumed by CI's step summary). Returns "" if
/// there are no complete traces.
std::string render_tail_report(const TailReport& r);

/// Cluster-wide attribution summary extracted from a Snapshot: each
/// attr.<stage> histogram merged across every endpoint, in pipeline order.
struct AttrSummary {
  std::array<HistogramData, kAttrStageCount> stages;
  HistogramData e2e;

  /// Sum of per-stage means. Every folded trace's stages telescope to its
  /// e2e, so this reconciles with e2e.mean() up to rounding.
  double stage_sum_mean_ns() const;
};

AttrSummary summarize_attr(const Snapshot& snap);

/// The LogP report: per-stage count/mean/p50/p95/max table (in
/// microseconds) followed by the stage-sum vs measured end-to-end
/// reconciliation line. Returns "" if the snapshot holds no attribution
/// data.
std::string render_attr_report(const Snapshot& snap);

}  // namespace vnet::obs
