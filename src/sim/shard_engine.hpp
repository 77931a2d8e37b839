// ShardEngine: conservative parallel execution of partitioned simulations.
//
// One engine owns P "places" (independent sim::Simulation instances — each
// a sequential event region with its own scheduler, RNG and trace sink)
// coupled only through declared Partition edges. Execution is the classic
// barrier-synchronous conservative scheme bounded by lookahead:
//
//   window  = min edge lookahead (Partition::min_lookahead)
//   epoch   = all places concurrently run events in [T, B), B = E + window
//             where E is the earliest pending event anywhere (>= T, so an
//             idle stretch is skipped in one epoch instead of busy-waiting
//             through empty windows)
//   barrier = cross-place messages posted during the epoch are drained
//             into their destination schedulers, then T = B - 1
//
// Correctness: a message sent at local time s >= T over an edge with
// lookahead L carries timestamp t = s + (link latency) >= T + L >= B, so
// it can never land inside the window any place is still executing —
// timestamp order holds without rollback and without null messages (the
// barrier plays their role).
//
// Determinism: the epoch schedule (E, B, drain times) is a pure function
// of virtual state, and drained messages are inserted in (timestamp,
// edge id, per-edge sequence) order, so every place's execution — and
// therefore every trace, rollup and oracle verdict — is byte-identical
// for any shard count and any EMPTCP_JOBS. Shards only decide which OS
// thread runs which place.
//
// Threading contract: between run_until calls the caller owns all places;
// inside an epoch each place is touched only by its assigned party, and
// the EpochGroup barrier provides the happens-before edges between phases.
// An engine with a single party (one shard, or one place) runs its epochs
// on the calling thread and never starts a pool. post() may only be called
// from the posting edge's source place (i.e. from within its event
// execution).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"

namespace emptcp::sim {

/// Epoch/shard telemetry snapshot, taken between run_until calls.
///
/// Two strictly separated kinds of data live here:
///   * virtual-state aggregates (epochs, events/epoch, advance/epoch,
///     cross messages/epoch, imbalance, per-place event totals) — pure
///     functions of (config, seed), identical for any shard count, always
///     maintained (integer arithmetic riding the existing per-epoch scan);
///   * wall-clock figures (per-place work_s, per-party busy/wait) —
///     populated only while runtime::Telemetry is enabled, and never
///     allowed to feed any deterministic artifact.
struct ShardEnginePerf {
  std::uint64_t epochs = 0;
  std::uint64_t busy_epochs = 0;  ///< epochs that executed >= 1 event
  Duration min_lookahead = 0;     ///< current window bound
  std::uint64_t cross_messages = 0;
  runtime::LogBuckets events_per_epoch;     ///< summed over places
  runtime::LogBuckets advance_ns_per_epoch; ///< virtual ns per epoch
  runtime::LogBuckets cross_per_epoch;      ///< messages posted per epoch
  /// Busiest place's share per busy epoch, as percent of the per-place
  /// mean (100 = perfectly balanced; places x 100 = one place did it all).
  runtime::LogBuckets imbalance_pct;

  struct Place {
    std::string name;
    std::uint64_t events = 0;       ///< executed since the run started
    std::uint64_t busy_epochs = 0;  ///< epochs with >= 1 event here
    double work_s = 0.0;            ///< wall; 0 unless telemetry enabled
  };
  std::vector<Place> places;

  struct Party {
    double busy_s = 0.0;  ///< wall inside exec/drain phases
    double wait_s = 0.0;  ///< wall parked at the barrier
  };
  std::vector<Party> parties;  ///< empty until the first epoch ran
};

/// Destination endpoint of a cross-place edge. on_cross_message runs as a
/// scheduled event inside the destination place at exactly the message's
/// timestamp, interleaved deterministically with the place's own events.
class CrossSink {
 public:
  virtual ~CrossSink() = default;
  virtual void on_cross_message(Time t, const void* data,
                                std::size_t size) = 0;
};

namespace detail {

/// Fixed-slot stable storage for in-flight cross messages of one place.
/// Drain copies a message in and schedules a 16-byte closure {slab, slot};
/// firing delivers to the sink and recycles the slot. Chunked so slots
/// never move; single-threaded (only the place's owner touches it).
class InboxSlab {
 public:
  /// Largest payload a slot must hold; grows only before first use.
  void require_payload(std::size_t bytes);

  std::uint32_t acquire(CrossSink* sink, Time t, const void* data,
                        std::size_t size);
  /// Delivers slot's message to its sink, then frees the slot.
  void fire(std::uint32_t slot);

  [[nodiscard]] std::size_t allocated() const { return allocated_; }

 private:
  struct Header {
    CrossSink* sink = nullptr;
    Time t = 0;
    std::uint32_t size = 0;
    std::uint32_t next_free = 0xFFFFFFFFu;
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::size_t kSlotsPerChunk = 64;

  [[nodiscard]] Header* header(std::uint32_t slot);
  void grow();

  std::size_t payload_bytes_ = 0;
  std::size_t stride_ = 0;  ///< sizeof(Header) + padded payload
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::size_t allocated_ = 0;
  std::uint32_t free_head_ = kNone;
};

}  // namespace detail

class ShardEngine {
 public:
  /// `shards` worker threads execute the places (0 = EMPTCP_JOBS-derived
  /// default). Results never depend on it.
  explicit ShardEngine(std::size_t shards = 1);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Registers a place. All places and edges must be added before the
  /// first run_until call.
  std::size_t add_place(Simulation& sim, std::string name);

  /// Registers a directed edge (validated by Partition: lookahead must be
  /// positive). Messages posted on it are delivered to `sink` inside place
  /// `dst`. `max_message_bytes` bounds a single message's payload.
  std::size_t add_edge(std::size_t src, std::size_t dst, Duration lookahead,
                       CrossSink& sink, std::size_t max_message_bytes);

  /// Posts one message on `edge` with timestamp `t`. Only the edge's
  /// source place may call this (from its executing events). Throws if the
  /// timestamp lands inside the current epoch window — that is a lookahead
  /// contract violation, not a recoverable condition.
  void post(std::size_t edge, Time t, const void* data, std::size_t size);

  /// Re-declares an edge's minimum latency (e.g. its link's propagation
  /// delay changed). Validated immediately (throws on <= 0), applied at
  /// the next barrier — the running epoch was planned under the old bound
  /// and stays correct: raising a bound mid-window is always safe, and a
  /// lowered bound only constrains messages sent after it takes effect.
  void request_lookahead_update(std::size_t edge, Duration lookahead);

  /// Advances every place to `stop` (inclusive, like Scheduler::run_until).
  /// `done_at_barrier` is evaluated on the driver thread at every epoch
  /// barrier; returning true ends the run early. Without edges there is no
  /// lookahead to bound an epoch, so while a predicate is given epochs
  /// last at most kDonePollPeriod of virtual time. Returns events executed.
  std::size_t run_until(Time stop,
                        const std::function<bool()>& done_at_barrier = {});

  /// Virtual time every place has reached (inclusive).
  [[nodiscard]] Time now() const { return now_; }

  [[nodiscard]] Partition& partition() { return partition_; }
  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  /// Messages ever posted across all edges. Valid between run_until calls
  /// (summed from per-edge counters, which workers own mid-epoch).
  [[nodiscard]] std::uint64_t cross_messages() const;
  /// Events executed across all places since their creation.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Telemetry snapshot; call between run_until calls (the caller owns
  /// all places there, per the threading contract above).
  [[nodiscard]] ShardEnginePerf perf() const;

 private:
  enum class Phase : std::uint8_t { kExec, kDrain };

  struct Message {
    Time t = 0;
    std::uint64_t seq = 0;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  struct EdgeState {
    CrossSink* sink = nullptr;
    std::vector<Message> msgs;
    std::vector<unsigned char> blob;
    std::uint64_t next_seq = 0;
    Duration pending_lookahead = 0;  ///< 0 = no update requested
  };
  struct PlaceState {
    Simulation* sim = nullptr;
    detail::InboxSlab inbox;
    std::vector<std::size_t> in_edges;
    // Epoch accounting. The event fields are deterministic (virtual
    // state); work_s/span_name are wall-clock side state, touched only
    // when telemetry is enabled.
    std::uint64_t last_events = 0;  ///< events_executed at last barrier
    std::uint64_t events_total = 0;
    std::uint64_t busy_epochs = 0;
    double work_s = 0.0;
    const char* span_name = nullptr;  ///< interned "exec <place>" label
  };

  /// Epoch length bound for done_at_barrier polling on an edgeless engine.
  static constexpr Duration kDonePollPeriod = milliseconds(200);

  void ensure_started();
  void run_parties(Phase phase);
  void run_phase(std::size_t party);
  void exec_place(PlaceState& place);
  void drain_place(std::size_t place_index);
  void apply_pending_lookaheads();
  void account_epoch(Time prev_now);

  Partition partition_;
  std::vector<PlaceState> places_;
  std::vector<EdgeState> edges_;
  std::size_t shards_ = 1;
  std::size_t parties_ = 1;
  std::unique_ptr<runtime::ThreadPool> pool_;   ///< null with one party
  std::unique_ptr<runtime::EpochGroup> group_;  ///< null with one party
  double solo_busy_s_ = 0.0;  ///< one-party wall time, telemetry only

  Time now_ = kTimeZero;
  Time bound_ = kTimeZero;  ///< exclusive end of the epoch in flight
  Phase phase_ = Phase::kExec;
  std::uint64_t epochs_ = 0;
  bool started_ = false;

  // Deterministic epoch aggregates (see ShardEnginePerf).
  std::uint64_t busy_epochs_ = 0;
  std::uint64_t prev_cross_ = 0;  ///< cross_messages() at last barrier
  runtime::LogBuckets ev_per_epoch_;
  runtime::LogBuckets adv_ns_per_epoch_;
  runtime::LogBuckets cross_per_epoch_;
  runtime::LogBuckets imbalance_pct_;

  /// Per-place scratch for the drain sort, index-aligned with places_.
  struct DrainItem {
    Message msg;
    std::size_t edge = 0;
  };
  std::vector<std::vector<DrainItem>> scratch_;
};

}  // namespace emptcp::sim
