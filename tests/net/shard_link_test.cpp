// CrossShardLink: a Link whose far end lives in another ShardEngine place.
// Contracts under test: packets cross with transmission + declared
// propagation delay and intact contents; zero propagation is rejected (it
// would collapse the conservative window); rate/loss modulation touches
// only the inner link and never the lookahead matrix; set_prop_delay goes
// through the engine's barrier-applied update path.
#include "net/shard_link.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/shard_engine.hpp"
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

struct Topology {
  sim::Simulation a{1};
  sim::Simulation b{2};
  sim::ShardEngine eng{2};
  std::size_t pa = 0;
  std::size_t pb = 0;
  CrossShardLink::Port port;

  Topology() {
    pa = eng.add_place(a, "a");
    pb = eng.add_place(b, "b");
  }

  CrossShardLink make(Link::Config cfg) {
    return CrossShardLink(a, eng, pa, pb, port, cfg);
  }
};

TEST(CrossShardLinkTest, DeliversAfterTransmissionPlusPropagation) {
  Topology t;
  Link::Config cfg;
  cfg.rate_mbps = 8.0;  // 1000 wire bytes -> 1 ms
  cfg.prop_delay = sim::milliseconds(10);
  CrossShardLink cross = t.make(cfg);

  sim::Time delivered_at = -1;
  Packet got;
  t.port.set_receiver([&](const Packet& p) {
    delivered_at = t.b.now();
    got = p;
  });
  cross.link().send(make_packet(960));
  t.eng.run_until(sim::seconds(1));

  // Same arrival time a local Link would produce: the propagation simply
  // moved from the link model to the engine edge.
  EXPECT_EQ(delivered_at, sim::milliseconds(11));
  EXPECT_EQ(got.src, 1u);
  EXPECT_EQ(got.dst, 2u);
  EXPECT_EQ(got.payload, 960u);
  EXPECT_EQ(t.eng.cross_messages(), 1u);
}

TEST(CrossShardLinkTest, BackToBackPacketsKeepSerialization) {
  Topology t;
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = sim::milliseconds(5);
  CrossShardLink cross = t.make(cfg);

  std::vector<sim::Time> arrivals;
  t.port.set_receiver([&](const Packet&) { arrivals.push_back(t.b.now()); });
  cross.link().send(make_packet(960));
  cross.link().send(make_packet(960));
  t.eng.run_until(sim::seconds(1));

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::milliseconds(6));  // 1 ms tx + 5 ms prop
  EXPECT_EQ(arrivals[1], sim::milliseconds(7));  // serialized behind it
}

TEST(CrossShardLinkTest, TwoSchedulerEventsPerBackboneHop) {
  Topology t;
  Link::Config cfg;
  cfg.rate_mbps = 80.0;
  cfg.prop_delay = sim::milliseconds(5);
  CrossShardLink cross = t.make(cfg);

  int delivered = 0;
  t.port.set_receiver([&](const Packet&) { ++delivered; });
  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) cross.link().send(make_packet(960));
  t.eng.run_until(sim::seconds(1));

  // One arrival event in the source place (the inner link's, at
  // transmission finish) and one mailbox delivery in the destination.
  ASSERT_EQ(delivered, kPackets);
  EXPECT_EQ(t.a.scheduler().events_executed(), 1u * kPackets);
  EXPECT_EQ(t.b.scheduler().events_executed(), 1u * kPackets);
}

TEST(CrossShardLinkTest, ZeroPropagationIsRejectedLoudly) {
  Topology t;
  Link::Config cfg;
  cfg.prop_delay = 0;
  EXPECT_THROW(t.make(cfg), std::invalid_argument);
  Link::Config negative;
  negative.prop_delay = -sim::milliseconds(1);
  EXPECT_THROW(t.make(negative), std::invalid_argument);
}

TEST(CrossShardLinkTest, RateAndLossChangesNeverTouchTheLookahead) {
  Topology t;
  Link::Config cfg;
  cfg.rate_mbps = 50.0;
  cfg.prop_delay = sim::milliseconds(10);
  CrossShardLink cross = t.make(cfg);

  // What a WifiChannel-style modulator does at runtime: rate and loss.
  cross.link().set_rate(1.0);
  cross.link().set_loss_prob(0.5);
  EXPECT_EQ(cross.prop_delay(), sim::milliseconds(10));
  EXPECT_EQ(t.eng.partition().min_lookahead(), sim::milliseconds(10));
  EXPECT_EQ(t.eng.partition().edge(cross.edge_id()).lookahead,
            sim::milliseconds(10));
}

TEST(CrossShardLinkTest, SetPropDelayRecomputesThroughTheBarrier) {
  Topology t;
  Link::Config cfg;
  cfg.rate_mbps = 8.0;
  cfg.prop_delay = sim::milliseconds(10);
  CrossShardLink cross = t.make(cfg);

  EXPECT_THROW(cross.set_prop_delay(0), std::invalid_argument);
  EXPECT_THROW(cross.set_prop_delay(-1), std::invalid_argument);

  // Before the first run the update applies immediately.
  cross.set_prop_delay(sim::milliseconds(4));
  EXPECT_EQ(cross.prop_delay(), sim::milliseconds(4));
  EXPECT_EQ(t.eng.partition().min_lookahead(), sim::milliseconds(4));

  // Mid-run the update lands at the next barrier, and packets sent after
  // it ship with the new propagation.
  std::vector<sim::Time> arrivals;
  t.port.set_receiver([&](const Packet&) { arrivals.push_back(t.b.now()); });
  t.a.at(sim::milliseconds(1), [&] {
    cross.set_prop_delay(sim::milliseconds(30));
  });
  t.a.at(sim::seconds(1), [&] { cross.link().send(make_packet(960)); });
  t.eng.run_until(sim::seconds(2));

  EXPECT_EQ(cross.prop_delay(), sim::milliseconds(30));
  ASSERT_EQ(arrivals.size(), 1u);
  // 1 s send + 1 ms transmission + 30 ms propagation.
  EXPECT_EQ(arrivals[0],
            sim::seconds(1) + sim::milliseconds(1) + sim::milliseconds(30));
}

}  // namespace
}  // namespace emptcp::net
