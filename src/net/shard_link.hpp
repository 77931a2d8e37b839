// CrossShardLink: a net::Link whose far end lives in another ShardEngine
// place.
//
// The source place owns a full inner Link (drop-tail queue, rate,
// random loss, tracing — identical semantics to any other hop), but the
// propagation delay is *not* modelled inside the source place: the inner
// link runs with zero propagation, so its one arrival event per packet
// fires at transmission-finish time s, and its receiver posts the packet on
// the engine edge with timestamp s + prop, where prop is the edge's
// declared lookahead. A backbone hop therefore costs two events: that
// arrival in the source place and the mailbox delivery in the destination
// place. That is
// exactly the conservative contract: every event executed in an epoch has
// s >= E (the epoch's earliest pending time), so s + prop >= E + window =
// the epoch bound, and the message can never land inside an executing
// window.
//
// The propagation delay therefore lives in the Partition edge. Changing it
// (set_prop_delay) goes through ShardEngine::request_lookahead_update —
// validated immediately, applied at the next barrier — and posts always
// stamp with the *currently effective* partition value, so the delivery
// schedule stays a pure function of virtual state (byte-identical for any
// shard count). Rate and loss changes (what WifiChannel-style modulators
// drive) touch only the inner link and can never invalidate the bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/shard_engine.hpp"

namespace emptcp::net {

class CrossShardLink {
 public:
  /// Destination endpoint. Construct it in the *destination* place, pass it
  /// to the CrossShardLink constructor, then point it at the local receiver
  /// (typically an Interface's deliver). on_cross_message runs as an event
  /// inside the destination place at the packet's arrival time.
  class Port : public sim::CrossSink {
   public:
    using Receiver = std::function<void(const Packet&)>;
    void set_receiver(Receiver r) { receiver_ = std::move(r); }
    void on_cross_message(sim::Time t, const void* data,
                          std::size_t size) override;

   private:
    Receiver receiver_;
  };

  /// `cfg.prop_delay` becomes the engine edge's lookahead (must be > 0);
  /// the inner link itself runs with zero propagation. `src_sim` must be
  /// the Simulation registered as place `src_place`.
  CrossShardLink(sim::Simulation& src_sim, sim::ShardEngine& engine,
                 std::size_t src_place, std::size_t dst_place, Port& port,
                 Link::Config cfg);

  CrossShardLink(const CrossShardLink&) = delete;
  CrossShardLink& operator=(const CrossShardLink&) = delete;

  /// The source-side link: route/chain packets into it exactly like any
  /// local hop. Its rate/loss setters are safe to drive at runtime; do NOT
  /// call its set_prop_delay (the propagation lives on the engine edge) —
  /// use CrossShardLink::set_prop_delay instead.
  [[nodiscard]] Link& link() { return link_; }

  /// Re-declares the boundary's propagation delay. Throws on d <= 0;
  /// takes effect at the next engine barrier (deterministically).
  void set_prop_delay(sim::Duration d) {
    engine_.request_lookahead_update(edge_, d);
  }
  [[nodiscard]] sim::Duration prop_delay() const {
    return engine_.partition().edge(edge_).lookahead;
  }

  [[nodiscard]] std::size_t edge_id() const { return edge_; }

  /// Packets this link has posted across the place boundary. A plain
  /// accessor, deliberately NOT a trace metric: per-link counts depend on
  /// the partition, so recording them into the merged trace would leak
  /// the cell topology into deterministic artifacts. Telemetry-side
  /// consumers (perf.json) read it directly instead.
  [[nodiscard]] std::uint64_t packets_posted() const { return posted_; }

 private:
  sim::Simulation& src_sim_;
  sim::ShardEngine& engine_;
  std::size_t edge_;
  std::uint64_t posted_ = 0;
  Link link_;
};

}  // namespace emptcp::net
