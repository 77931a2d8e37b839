#include "sim/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace emptcp::sim {

namespace detail {

void InboxSlab::require_payload(std::size_t bytes) {
  if (!chunks_.empty()) {
    if (bytes > payload_bytes_) {
      throw std::logic_error(
          "InboxSlab::require_payload: cannot widen slots after first use");
    }
    return;
  }
  payload_bytes_ = std::max(payload_bytes_, bytes);
}

InboxSlab::Header* InboxSlab::header(std::uint32_t slot) {
  unsigned char* chunk = chunks_[slot / kSlotsPerChunk].get();
  return reinterpret_cast<Header*>(chunk + (slot % kSlotsPerChunk) * stride_);
}

void InboxSlab::grow() {
  if (stride_ == 0) {
    constexpr std::size_t kAlign = alignof(Header);
    stride_ = sizeof(Header) +
              (payload_bytes_ + kAlign - 1) / kAlign * kAlign;
  }
  const auto base =
      static_cast<std::uint32_t>(chunks_.size() * kSlotsPerChunk);
  chunks_.push_back(
      std::make_unique<unsigned char[]>(stride_ * kSlotsPerChunk));
  unsigned char* chunk = chunks_.back().get();
  for (std::size_t i = kSlotsPerChunk; i-- > 0;) {
    auto* h = new (chunk + i * stride_) Header();
    h->next_free = free_head_;
    free_head_ = base + static_cast<std::uint32_t>(i);
  }
}

std::uint32_t InboxSlab::acquire(CrossSink* sink, Time t, const void* data,
                                 std::size_t size) {
  if (size > payload_bytes_) {
    throw std::length_error("InboxSlab::acquire: message of " +
                            std::to_string(size) +
                            " bytes exceeds the declared maximum of " +
                            std::to_string(payload_bytes_));
  }
  if (free_head_ == kNone) grow();
  const std::uint32_t slot = free_head_;
  Header* h = header(slot);
  free_head_ = h->next_free;
  h->sink = sink;
  h->t = t;
  h->size = static_cast<std::uint32_t>(size);
  if (size != 0) {
    std::memcpy(reinterpret_cast<unsigned char*>(h) + sizeof(Header), data,
                size);
  }
  ++allocated_;
  return slot;
}

void InboxSlab::fire(std::uint32_t slot) {
  Header* h = header(slot);
  h->sink->on_cross_message(
      h->t, reinterpret_cast<unsigned char*>(h) + sizeof(Header), h->size);
  h->next_free = free_head_;
  free_head_ = slot;
  --allocated_;
}

}  // namespace detail

namespace {

/// a + b clamped to kTimeNever (b may itself be kTimeNever); a >= 0.
Time sat_add(Time a, Duration b) {
  return b >= kTimeNever - a ? kTimeNever : a + b;
}

}  // namespace

ShardEngine::ShardEngine(std::size_t shards)
    : shards_(shards == 0 ? runtime::default_worker_count() : shards) {}

ShardEngine::~ShardEngine() = default;  // group_ joins before pool_ stops

std::size_t ShardEngine::add_place(Simulation& sim, std::string name) {
  if (started_) {
    throw std::logic_error(
        "ShardEngine::add_place: topology is frozen once run_until has run");
  }
  const std::size_t id = partition_.add_place(std::move(name));
  PlaceState place;
  place.sim = &sim;
  places_.push_back(std::move(place));
  scratch_.emplace_back();
  return id;
}

std::size_t ShardEngine::add_edge(std::size_t src, std::size_t dst,
                                  Duration lookahead, CrossSink& sink,
                                  std::size_t max_message_bytes) {
  if (started_) {
    throw std::logic_error(
        "ShardEngine::add_edge: topology is frozen once run_until has run");
  }
  const std::size_t id = partition_.add_edge(src, dst, lookahead);
  EdgeState edge;
  edge.sink = &sink;
  edges_.push_back(std::move(edge));
  places_[dst].in_edges.push_back(id);
  places_[dst].inbox.require_payload(max_message_bytes);
  return id;
}

void ShardEngine::post(std::size_t edge, Time t, const void* data,
                       std::size_t size) {
  EdgeState& e = edges_.at(edge);
  if (!started_) {
    throw std::logic_error(
        "ShardEngine::post: messages originate from executing events; there "
        "are none before the first run_until");
  }
  if (t < bound_) {
    const Partition::Edge& pe = partition_.edge(edge);
    throw std::logic_error(
        "ShardEngine::post: lookahead contract violated on edge " +
        partition_.place_name(pe.src) + " -> " + partition_.place_name(pe.dst) +
        ": message timestamp " + std::to_string(t) +
        " ns lands inside the executing window (bound " +
        std::to_string(bound_) + " ns, declared lookahead " +
        std::to_string(pe.lookahead) +
        " ns) — the edge's real minimum latency is smaller than declared");
  }
  if (e.blob.size() + size > 0xFFFFFFFFull) {
    throw std::overflow_error(
        "ShardEngine::post: per-epoch edge buffer exceeds 4 GiB");
  }
  Message m;
  m.t = t;
  m.seq = e.next_seq++;
  m.offset = static_cast<std::uint32_t>(e.blob.size());
  m.size = static_cast<std::uint32_t>(size);
  e.msgs.push_back(m);
  const auto* bytes = static_cast<const unsigned char*>(data);
  e.blob.insert(e.blob.end(), bytes, bytes + size);
}

void ShardEngine::request_lookahead_update(std::size_t edge,
                                           Duration lookahead) {
  EdgeState& e = edges_.at(edge);
  if (lookahead <= 0) {
    const Partition::Edge& pe = partition_.edge(edge);
    throw std::invalid_argument(
        "ShardEngine::request_lookahead_update: edge " +
        partition_.place_name(pe.src) + " -> " + partition_.place_name(pe.dst) +
        " updated to zero/negative lookahead (" + std::to_string(lookahead) +
        " ns); a conservative engine cannot synchronise across a zero-delay "
        "boundary");
  }
  if (!started_) {
    // No epoch is in flight: take effect immediately so the first window is
    // planned under the tightened bound.
    partition_.update_edge_lookahead(edge, lookahead);
    return;
  }
  e.pending_lookahead = lookahead;
}

void ShardEngine::ensure_started() {
  if (started_) return;
  if (places_.empty()) {
    throw std::logic_error("ShardEngine::run_until: no places registered");
  }
  started_ = true;
  parties_ = std::max<std::size_t>(std::min(shards_, places_.size()), 1);
  if (parties_ == 1) return;  // epochs run on the caller's thread
  pool_ = std::make_unique<runtime::ThreadPool>(parties_);
  group_ = std::make_unique<runtime::EpochGroup>(
      *pool_, parties_, [this](std::size_t party) { run_phase(party); });
}

void ShardEngine::run_parties(Phase phase) {
  phase_ = phase;
  if (group_) {
    group_->run();
    return;
  }
  if (!runtime::Telemetry::enabled()) {
    run_phase(0);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  run_phase(0);
  solo_busy_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::size_t ShardEngine::run_until(Time stop,
                                   const std::function<bool()>& done_at_barrier) {
  ensure_started();
  const std::uint64_t before = events_executed();
  for (;;) {
    if (done_at_barrier && done_at_barrier()) break;
    Time earliest = kTimeNever;
    for (const PlaceState& p : places_) {
      earliest = std::min(earliest, p.sim->scheduler().next_event_time());
    }
    if (earliest == kTimeNever || earliest > stop) {
      // Nothing left at or before `stop` anywhere: land every clock exactly
      // on `stop` (executes no events — the scan just proved there are
      // none) so a later run_until resumes from a well-defined time.
      if (stop != kTimeNever) {
        for (const PlaceState& p : places_) {
          if (p.sim->now() < stop) p.sim->run_until(stop);
        }
        if (now_ < stop) now_ = stop;
      }
      break;
    }
    const Duration window = edges_.empty() && done_at_barrier
                                ? kDonePollPeriod
                                : partition_.min_lookahead();
    bound_ = std::min(sat_add(earliest, window), sat_add(stop, 1));
    const Time prev_now = now_;
    run_parties(Phase::kExec);
    if (!edges_.empty()) run_parties(Phase::kDrain);
    apply_pending_lookaheads();
    now_ = bound_ - 1;
    ++epochs_;
    account_epoch(prev_now);
  }
  return static_cast<std::size_t>(events_executed() - before);
}

void ShardEngine::account_epoch(Time prev_now) {
  // Deterministic aggregates first: integer arithmetic over virtual
  // state, always on (one pass over places alongside the earliest-scan).
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (PlaceState& p : places_) {
    const std::uint64_t ev = p.sim->scheduler().events_executed();
    const std::uint64_t d = ev - p.last_events;
    p.last_events = ev;
    if (d != 0) {
      p.events_total += d;
      ++p.busy_epochs;
      total += d;
      if (d > busiest) busiest = d;
    }
  }
  ev_per_epoch_.add(total);
  adv_ns_per_epoch_.add(
      now_ > prev_now ? static_cast<std::uint64_t>(now_ - prev_now) : 0);
  const std::uint64_t cross = cross_messages();
  const std::uint64_t cross_delta = cross - prev_cross_;
  cross_per_epoch_.add(cross_delta);
  prev_cross_ = cross;
  std::uint64_t imbalance = 0;
  if (total != 0) {
    ++busy_epochs_;
    imbalance = busiest * places_.size() * 100 / total;
    imbalance_pct_.add(imbalance);
  }
  // Wall-clock counter tracks (Chrome "C" events), driver thread only.
  if (runtime::Telemetry::enabled()) {
    runtime::Telemetry& t = runtime::Telemetry::instance();
    t.counter("epoch.events", static_cast<double>(total));
    t.counter("epoch.cross_messages", static_cast<double>(cross_delta));
    t.counter("epoch.imbalance_pct", static_cast<double>(imbalance));
  }
}

void ShardEngine::run_phase(std::size_t party) {
  const bool wall = runtime::Telemetry::enabled();
  for (std::size_t i = party; i < places_.size(); i += parties_) {
    if (phase_ == Phase::kExec) {
      PlaceState& place = places_[i];
      if (!wall) {
        exec_place(place);
        continue;
      }
      // Per-place span + work accounting. The span name is interned once
      // (cold path) because exports may outlive the engine.
      if (place.span_name == nullptr) {
        place.span_name = runtime::Telemetry::instance().intern(
            "exec " + partition_.place_name(i));
      }
      runtime::ScopedSpan span(place.span_name);
      const auto t0 = std::chrono::steady_clock::now();
      exec_place(place);
      place.work_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    } else {
      EMPTCP_SPAN("epoch.drain");
      drain_place(i);
    }
  }
}

void ShardEngine::exec_place(PlaceState& place) {
  // The worker thread executes this place's events, so the thread-local
  // current-sink shortcut (flight-recorder dumps, panic paths) must point at
  // this place's sink for the duration.
  trace::TraceSink* prev =
      trace::detail::set_current_sink(&place.sim->trace());
  try {
    place.sim->run_until(bound_ - 1);
  } catch (...) {
    trace::detail::set_current_sink(prev);
    throw;
  }
  trace::detail::set_current_sink(prev);
}

void ShardEngine::drain_place(std::size_t place_index) {
  PlaceState& place = places_[place_index];
  std::vector<DrainItem>& items = scratch_[place_index];
  items.clear();
  for (const std::size_t edge_id : place.in_edges) {
    for (const Message& m : edges_[edge_id].msgs) {
      items.push_back(DrainItem{m, edge_id});
    }
  }
  // Deterministic insertion order regardless of shard count: by timestamp,
  // then edge id (parallel edges between the same pair exist), then the
  // per-edge posting sequence.
  std::sort(items.begin(), items.end(),
            [](const DrainItem& a, const DrainItem& b) {
              if (a.msg.t != b.msg.t) return a.msg.t < b.msg.t;
              if (a.edge != b.edge) return a.edge < b.edge;
              return a.msg.seq < b.msg.seq;
            });
  detail::InboxSlab* slab = &place.inbox;
  for (const DrainItem& item : items) {
    EdgeState& e = edges_[item.edge];
    const std::uint32_t slot = slab->acquire(
        e.sink, item.msg.t, e.blob.data() + item.msg.offset, item.msg.size);
    place.sim->at(item.msg.t, [slab, slot] { slab->fire(slot); });
  }
  for (const std::size_t edge_id : place.in_edges) {
    edges_[edge_id].msgs.clear();
    edges_[edge_id].blob.clear();
  }
}

void ShardEngine::apply_pending_lookaheads() {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].pending_lookahead > 0) {
      partition_.update_edge_lookahead(i, edges_[i].pending_lookahead);
      edges_[i].pending_lookahead = 0;
    }
  }
}

std::uint64_t ShardEngine::cross_messages() const {
  std::uint64_t total = 0;
  for (const EdgeState& e : edges_) total += e.next_seq;
  return total;
}

std::uint64_t ShardEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const PlaceState& p : places_) {
    total += p.sim->scheduler().events_executed();
  }
  return total;
}

ShardEnginePerf ShardEngine::perf() const {
  ShardEnginePerf perf;
  perf.epochs = epochs_;
  perf.busy_epochs = busy_epochs_;
  perf.min_lookahead = partition_.edge_count() > 0 ? partition_.min_lookahead() : 0;
  perf.cross_messages = cross_messages();
  perf.events_per_epoch = ev_per_epoch_;
  perf.advance_ns_per_epoch = adv_ns_per_epoch_;
  perf.cross_per_epoch = cross_per_epoch_;
  perf.imbalance_pct = imbalance_pct_;
  perf.places.reserve(places_.size());
  for (std::size_t i = 0; i < places_.size(); ++i) {
    const PlaceState& p = places_[i];
    ShardEnginePerf::Place out;
    out.name = partition_.place_name(i);
    out.events = p.events_total;
    out.busy_epochs = p.busy_epochs;
    out.work_s = p.work_s;
    perf.places.push_back(std::move(out));
  }
  if (group_) {
    for (const runtime::EpochGroup::PartyStats& s : group_->party_stats()) {
      perf.parties.push_back(ShardEnginePerf::Party{s.busy_s, s.wait_s});
    }
  } else if (started_) {
    perf.parties.push_back(ShardEnginePerf::Party{solo_busy_s_, 0.0});
  }
  return perf;
}

}  // namespace emptcp::sim
