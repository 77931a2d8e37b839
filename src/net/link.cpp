#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>

namespace emptcp::net {

Link::Link(sim::Simulation& sim, Config cfg)
    : sim_(sim), cfg_(std::move(cfg)), pool_(sim.context<PacketPool>()) {
  if (cfg_.rate_mbps <= 0.0) {
    throw std::invalid_argument("Link rate must be positive: " + cfg_.name);
  }
  retime();
}

bool Link::drop_tail(std::uint32_t wire_bytes) {
  settle();
  if (queued_bytes_ + wire_bytes > cfg_.queue_limit_bytes &&
      settled_ < ring_.size()) {
    ++dropped_queue_;
    return true;
  }
  return false;
}

void Link::send(const Packet& pkt) {
  if (drop_tail(pkt.wire_bytes())) return;
  enqueue(pool_.clone(pkt));
}

void Link::send(PooledPacket&& pkt) {
  if (drop_tail(pkt->wire_bytes())) return;  // pkt's slot returns to the pool
  enqueue(std::move(pkt));
}

void Link::enqueue(PooledPacket&& pkt) {
  const sim::Time now = sim_.now();
  const std::uint32_t bytes = pkt->wire_bytes();
  pkt->enqueued_at = now;
  queued_bytes_ += bytes;
  busy_until_ = std::max(busy_until_, now) + tx_time(bytes);
  // pending_delay_ is non-zero only if it was added while the link was
  // idle and nothing has been enqueued since: it belongs to this packet.
  ring_.push_back(InFlight{std::move(pkt), busy_until_, pending_delay_});
  pending_delay_ = 0;
  if (!armed_) arm();
}

sim::Duration Link::tx_time(std::uint32_t wire_bytes) const {
  return sim::from_seconds(static_cast<double>(wire_bytes) * 8.0 /
                           avail_bps_);
}

void Link::retime() {
  // Fluid background traffic occupies its declared share of the
  // transmitter; packet traffic serializes in what remains (at least 1%,
  // so a mis-declared overload degrades instead of deadlocking).
  const double line_bps = cfg_.rate_mbps * 1e6;
  const double avail = std::max(line_bps - background_bps_, line_bps * 0.01);
  if (avail == avail_bps_) return;
  avail_bps_ = avail;
  // Retime the packets still waiting for the transmitter. The first
  // unsettled entry is the one being transmitted: it keeps its tx_end.
  settle();
  if (settled_ >= ring_.size()) return;
  sim::Time t = ring_[settled_].tx_end;
  for (std::size_t i = settled_ + 1; i < ring_.size(); ++i) {
    t += tx_time(ring_[i].pkt->wire_bytes());
    ring_[i].tx_end = t;
  }
  busy_until_ = t;
}

void Link::set_rate(double mbps) {
  const double clamped = std::max(mbps, 1e-3);  // never fully stall the link
  const bool changed = clamped != cfg_.rate_mbps;
  cfg_.rate_mbps = clamped;
  retime();
  if (changed && transient_cb_) transient_cb_();
}

void Link::set_background_bps(double bps) {
  background_bps_ = std::max(bps, 0.0);
  retime();
}

void Link::set_prop_delay(sim::Duration d) {
  if (d == cfg_.prop_delay) return;
  settle();
  // Packets past the transmitter already left with the old delay. They
  // may now arrive after packets still queued, so each gets its own event
  // and the ring keeps one delay for all of its entries.
  while (settled_ > 0) {
    InFlight& e = ring_.front();
    arrive_later(e.tx_end + cfg_.prop_delay + e.extra, std::move(e.pkt));
    ring_.pop_front();
    --settled_;
  }
  cfg_.prop_delay = d;
  if (armed_) {
    sim::Scheduler::cancel(arrival_);
    armed_ = false;
  }
  if (!ring_.empty()) arm();
}

void Link::add_pending_delay(sim::Duration d) {
  settle();
  if (settled_ < ring_.size()) {
    ring_[settled_].extra += d;  // the packet in the transmitter
  } else {
    pending_delay_ += d;
  }
}

void Link::settle() {
  const sim::Time now = sim_.now();
  while (settled_ < ring_.size() && ring_[settled_].tx_end < now) {
    queued_bytes_ -= ring_[settled_].pkt->wire_bytes();
    ++settled_;
  }
}

void Link::arm() {
  armed_ = true;
  arrival_ = sim_.at(ring_.front().tx_end + cfg_.prop_delay,
                     [this] { on_arrival(); });
}

void Link::on_arrival() {
  armed_ = false;
  InFlight& head = ring_.front();
  PooledPacket pkt = std::move(head.pkt);
  const sim::Duration extra = head.extra;
  if (settled_ > 0) {
    --settled_;
  } else {  // not settled yet (zero propagation): its bytes still count
    queued_bytes_ -= pkt->wire_bytes();
  }
  ring_.pop_front();
  // Arm the next head before delivering: the receiver may send on this
  // link again.
  if (!ring_.empty()) arm();
  if (extra > 0) {
    arrive_later(sim_.now() + extra, std::move(pkt));
  } else {
    arrive(std::move(pkt));
  }
}

void Link::arrive_later(sim::Time t, PooledPacket&& pkt) {
  sim_.at(t, [this, p = std::move(pkt)]() mutable { arrive(std::move(p)); });
}

void Link::arrive(PooledPacket&& pkt) {
  if (sim_.rng().chance(cfg_.loss_prob)) {
    ++dropped_loss_;
    return;
  }
  ++delivered_;
  delivered_bytes_ += pkt->wire_bytes();
  deliver(std::move(pkt));
}

void Link::deliver(PooledPacket&& pkt) {
  if (next_ != nullptr) {
    next_->send(std::move(pkt));
  } else if (receiver_) {
    receiver_(*pkt);
  }
}

}  // namespace emptcp::net
