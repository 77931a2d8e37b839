#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace emptcp::net {
namespace {

Packet make_packet(std::uint32_t payload) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = payload;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulation sim{1};
};

TEST_F(LinkTest, DeliversAfterTransmissionPlusPropagation) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;  // 1 byte per microsecond
  cfg.prop_delay = sim::milliseconds(10);
  Link link(sim, cfg);

  sim::Time delivered_at = -1;
  link.set_receiver([&](const Packet&) { delivered_at = sim.now(); });
  link.send(make_packet(960));  // 1000 wire bytes -> 1 ms at 8 Mbps

  sim.run();
  EXPECT_EQ(delivered_at, sim::milliseconds(11));
  EXPECT_EQ(link.delivered_packets(), 1u);
}

TEST_F(LinkTest, SerializesBackToBackPackets) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = 0;
  Link link(sim, cfg);

  std::vector<sim::Time> arrivals;
  link.set_receiver([&](const Packet&) { arrivals.push_back(sim.now()); });
  link.send(make_packet(960));
  link.send(make_packet(960));
  link.send(make_packet(960));

  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::milliseconds(1));
  EXPECT_EQ(arrivals[1], sim::milliseconds(2));
  EXPECT_EQ(arrivals[2], sim::milliseconds(3));
}

TEST_F(LinkTest, DropTailWhenQueueFull) {
  Link::Config cfg;
  cfg.rate_mbps = 0.008;  // very slow so queue builds
  cfg.queue_limit_bytes = 2500;
  Link link(sim, cfg);
  int delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });

  for (int i = 0; i < 5; ++i) link.send(make_packet(960));  // 1000 B each

  EXPECT_GT(link.dropped_queue(), 0u);
  sim.run();
  EXPECT_EQ(delivered + static_cast<int>(link.dropped_queue()), 5);
}

TEST_F(LinkTest, OversizedPacketPassesOnEmptyQueue) {
  Link::Config cfg;
  cfg.queue_limit_bytes = 100;  // smaller than any packet
  Link link(sim, cfg);
  int delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  link.send(make_packet(960));
  sim.run();
  EXPECT_EQ(delivered, 1);  // no livelock on tiny queues
}

TEST_F(LinkTest, RandomLossDropsApproximatelyAtRate) {
  Link::Config cfg;
  cfg.rate_mbps = 1000.0;
  cfg.loss_prob = 0.2;
  cfg.queue_limit_bytes = 8 << 20;  // no queue drops in this test
  Link link(sim, cfg);
  int delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });

  const int n = 5000;
  for (int i = 0; i < n; ++i) link.send(make_packet(100));
  sim.run();
  const double loss_rate =
      static_cast<double>(link.dropped_loss()) / static_cast<double>(n);
  EXPECT_NEAR(loss_rate, 0.2, 0.03);
  EXPECT_EQ(delivered, n - static_cast<int>(link.dropped_loss()));
}

TEST_F(LinkTest, RateChangeAffectsSubsequentPackets) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = 0;
  Link link(sim, cfg);
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](const Packet&) { arrivals.push_back(sim.now()); });

  link.send(make_packet(960));  // 1 ms at 8 Mbps
  sim.run();
  link.set_rate(4.0);
  link.send(make_packet(960));  // 2 ms at 4 Mbps
  sim.run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::milliseconds(1));
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::milliseconds(2));
}

TEST_F(LinkTest, SetRateClampsToPositive) {
  Link::Config cfg;
  Link link(sim, cfg);
  link.set_rate(0.0);
  EXPECT_GT(link.rate_mbps(), 0.0);
  link.set_rate(-5.0);
  EXPECT_GT(link.rate_mbps(), 0.0);
}

TEST_F(LinkTest, ZeroInitialRateThrows) {
  Link::Config cfg;
  cfg.rate_mbps = 0.0;
  EXPECT_THROW(Link(sim, cfg), std::invalid_argument);
}

TEST_F(LinkTest, PendingDelayAppliesOnceToNextDelivery) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = sim::milliseconds(1);
  Link link(sim, cfg);
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](const Packet&) { arrivals.push_back(sim.now()); });

  link.add_pending_delay(sim::milliseconds(200));  // cellular promotion
  link.send(make_packet(960));
  sim.run();
  link.send(make_packet(960));
  sim.run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::milliseconds(202));  // 1 tx + 1 prop + 200
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::milliseconds(2));  // no extra
}

TEST_F(LinkTest, CountsDeliveredBytes) {
  Link::Config cfg;
  Link link(sim, cfg);
  link.set_receiver([](const Packet&) {});
  link.send(make_packet(960));
  link.send(make_packet(460));
  sim.run();
  EXPECT_EQ(link.delivered_bytes(), 1000u + 500u);
}

// --- Virtual transmit clock: changes that land while packets are queued.
// Each 960-byte payload is 1000 wire bytes, i.e. 1 ms at 8 Mbps.

Packet numbered(std::uint64_t seq) {
  Packet p = make_packet(960);
  p.seq = seq;
  return p;
}

struct Arrival {
  std::uint64_t seq;
  sim::Time at;
};

TEST_F(LinkTest, RateChangeWhileQueuedRetimesOnlyWaitingPackets) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = 0;
  Link link(sim, cfg);
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](const Packet&) { arrivals.push_back(sim.now()); });

  for (int i = 0; i < 3; ++i) link.send(make_packet(960));
  sim.at(sim::microseconds(500), [&] { link.set_rate(4.0); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::milliseconds(1));  // in the transmitter: old rate
  EXPECT_EQ(arrivals[1], sim::milliseconds(3));  // 2 ms at 4 Mbps
  EXPECT_EQ(arrivals[2], sim::milliseconds(5));
}

TEST_F(LinkTest, BackgroundChangeWhileQueuedRetimesOnlyWaitingPackets) {
  Link::Config cfg;
  cfg.rate_mbps = 16.0;  // 0.5 ms per packet
  cfg.prop_delay = 0;
  Link link(sim, cfg);
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](const Packet&) { arrivals.push_back(sim.now()); });

  for (int i = 0; i < 3; ++i) link.send(make_packet(960));
  // Fluid traffic takes half the line: 1 ms per packet from the next one.
  sim.at(sim::microseconds(250), [&] { link.set_background_bps(8e6); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::microseconds(500));
  EXPECT_EQ(arrivals[1], sim::microseconds(1500));
  EXPECT_EQ(arrivals[2], sim::microseconds(2500));
}

TEST_F(LinkTest, PendingDelayWhileBusyLandsOnTransmittingPacket) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = sim::milliseconds(1);
  Link link(sim, cfg);
  std::vector<Arrival> arrivals;
  link.set_receiver(
      [&](const Packet& p) { arrivals.push_back({p.seq, sim.now()}); });

  for (std::uint64_t i = 1; i <= 3; ++i) link.send(numbered(i));
  sim.at(sim::microseconds(500),
         [&] { link.add_pending_delay(sim::milliseconds(5)); });
  sim.run();

  // Packet 1 was in the transmitter and carries the delay; packets 2 and
  // 3 overtake it.
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].seq, 2u);
  EXPECT_EQ(arrivals[0].at, sim::milliseconds(3));
  EXPECT_EQ(arrivals[1].seq, 3u);
  EXPECT_EQ(arrivals[1].at, sim::milliseconds(4));
  EXPECT_EQ(arrivals[2].seq, 1u);
  EXPECT_EQ(arrivals[2].at, sim::milliseconds(7));  // 1 tx + 1 prop + 5
}

TEST_F(LinkTest, PacketFinishingNowStillOccupiesTheQueue) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = sim::milliseconds(10);
  cfg.queue_limit_bytes = 1500;  // room for one 1000-byte packet
  Link link(sim, cfg);
  int delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });

  // Scheduled before the first send, so it runs ahead of anything the
  // link does at t = 1 ms, when the first packet's transmission ends.
  sim.at(sim::milliseconds(1), [&] { link.send(make_packet(960)); });
  sim.at(sim::milliseconds(1) + 1, [&] { link.send(make_packet(960)); });
  link.send(make_packet(960));
  sim.run();

  EXPECT_EQ(link.dropped_queue(), 1u);  // the send at exactly tx_end
  EXPECT_EQ(delivered, 2);
}

TEST_F(LinkTest, PropDelayChangeAppliesToPacketsNotYetTransmitted) {
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = sim::milliseconds(10);
  Link link(sim, cfg);
  std::vector<Arrival> arrivals;
  link.set_receiver(
      [&](const Packet& p) { arrivals.push_back({p.seq, sim.now()}); });

  for (std::uint64_t i = 1; i <= 3; ++i) link.send(numbered(i));
  // Packet 1 has left the transmitter (1 ms); 2 is in it; 3 is queued.
  sim.at(sim::microseconds(1500),
         [&] { link.set_prop_delay(sim::milliseconds(2)); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].seq, 2u);
  EXPECT_EQ(arrivals[0].at, sim::milliseconds(4));
  EXPECT_EQ(arrivals[1].seq, 3u);
  EXPECT_EQ(arrivals[1].at, sim::milliseconds(5));
  EXPECT_EQ(arrivals[2].seq, 1u);
  EXPECT_EQ(arrivals[2].at, sim::milliseconds(11));  // left with 10 ms

  // A longer delay keeps FIFO order.
  arrivals.clear();
  const sim::Time t0 = sim.now();
  for (std::uint64_t i = 1; i <= 3; ++i) link.send(numbered(i));
  sim.at(t0 + sim::microseconds(1500),
         [&] { link.set_prop_delay(sim::milliseconds(20)); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].at - t0, sim::milliseconds(3));   // left with 2 ms
  EXPECT_EQ(arrivals[1].at - t0, sim::milliseconds(22));
  EXPECT_EQ(arrivals[2].at - t0, sim::milliseconds(23));
}

TEST_F(LinkTest, OneSchedulerEventPerPacketHop) {
  Link::Config cfg;
  cfg.rate_mbps = 100.0;
  cfg.prop_delay = sim::microseconds(50);
  cfg.queue_limit_bytes = 1 << 20;
  Link acc(sim, cfg);
  Link wan(sim, cfg);
  acc.chain_to(wan);
  int delivered = 0;
  wan.set_receiver([&](const Packet&) { ++delivered; });

  constexpr int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) acc.send(make_packet(960));
  sim.run();

  ASSERT_EQ(delivered, kPackets);
  EXPECT_EQ(sim.scheduler().events_executed(), 2u * kPackets);
}

}  // namespace
}  // namespace emptcp::net
