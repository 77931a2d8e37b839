// ShardEngine: conservative barrier-synchronous execution of partitioned
// simulations. The contracts under test, in rough order of importance:
// messages arrive as events at exactly their posted timestamp; delivery
// order under simultaneous timestamps is fixed by (time, edge, seq);
// results are identical for any shard count; idle stretches are skipped in
// one epoch; lookahead-contract violations throw instead of corrupting
// timestamp order.
#include "sim/shard_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulation.hpp"

namespace emptcp::sim {
namespace {

/// Records every delivery: the message timestamp, the destination clock at
/// delivery, and the payload (an int).
struct RecordingSink : CrossSink {
  struct Rec {
    Time t = 0;
    Time delivered_at = 0;
    int value = 0;
  };
  Simulation* sim = nullptr;
  std::vector<Rec> recs;

  void on_cross_message(Time t, const void* data, std::size_t size) override {
    Rec r;
    r.t = t;
    r.delivered_at = sim->now();
    if (size == sizeof(int)) std::memcpy(&r.value, data, sizeof(int));
    recs.push_back(r);
  }
};

/// Posts `value` on `edge` stamped now + the edge's effective lookahead —
/// the same discipline net::CrossShardLink uses.
void post_now(ShardEngine& eng, Simulation& src, std::size_t edge,
              int value) {
  const Time t = src.now() + eng.partition().edge(edge).lookahead;
  eng.post(edge, t, &value, sizeof(value));
}

TEST(ShardEngineTest, CrossMessageArrivesAtExactTimestamp) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(2);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  const std::size_t e =
      eng.add_edge(pa, pb, milliseconds(10), sink, sizeof(int));

  a.at(milliseconds(5), [&] { post_now(eng, a, e, 42); });
  eng.run_until(seconds(1));

  ASSERT_EQ(sink.recs.size(), 1u);
  EXPECT_EQ(sink.recs[0].t, milliseconds(15));
  EXPECT_EQ(sink.recs[0].delivered_at, milliseconds(15));
  EXPECT_EQ(sink.recs[0].value, 42);
  EXPECT_EQ(eng.cross_messages(), 1u);
  // Both clocks landed on the stop time.
  EXPECT_EQ(eng.now(), seconds(1));
  EXPECT_EQ(a.now(), seconds(1));
  EXPECT_EQ(b.now(), seconds(1));
}

TEST(ShardEngineTest, SimultaneousTimestampsDrainInEdgeThenSeqOrder) {
  Simulation a(1);
  Simulation b(2);
  Simulation c(3);
  ShardEngine eng(3);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  const std::size_t pc = eng.add_place(c, "c");
  RecordingSink sink;
  sink.sim = &c;
  const std::size_t ea =
      eng.add_edge(pa, pc, milliseconds(10), sink, sizeof(int));
  const std::size_t eb =
      eng.add_edge(pb, pc, milliseconds(10), sink, sizeof(int));
  ASSERT_LT(ea, eb);

  // Both sources post for the same delivery instant; A posts twice from
  // one event (seq order within the edge).
  a.at(kTimeZero, [&] {
    const int first = 101;
    const int second = 102;
    eng.post(ea, milliseconds(10), &first, sizeof(first));
    eng.post(ea, milliseconds(10), &second, sizeof(second));
  });
  b.at(kTimeZero, [&] {
    const int v = 201;
    eng.post(eb, milliseconds(10), &v, sizeof(v));
  });
  eng.run_until(seconds(1));

  ASSERT_EQ(sink.recs.size(), 3u);
  EXPECT_EQ(sink.recs[0].value, 101);  // lower edge id first
  EXPECT_EQ(sink.recs[1].value, 102);  // then posting order within the edge
  EXPECT_EQ(sink.recs[2].value, 201);
  for (const auto& r : sink.recs) EXPECT_EQ(r.delivered_at, milliseconds(10));
}

/// Ping-pong harness: each delivery re-posts on the reverse edge until the
/// shared hop budget runs out. Used to compare executions across shard
/// counts.
struct PingPong : CrossSink {
  ShardEngine* eng = nullptr;
  Simulation* sim = nullptr;
  std::size_t reverse_edge = 0;
  int* budget = nullptr;
  std::vector<std::pair<Time, int>>* log = nullptr;

  void on_cross_message(Time /*t*/, const void* data,
                        std::size_t size) override {
    int v = 0;
    if (size == sizeof(int)) std::memcpy(&v, data, sizeof(int));
    log->emplace_back(sim->now(), v);
    if (*budget > 0) {
      --*budget;
      const int next = v + 1;
      const Time t =
          sim->now() + eng->partition().edge(reverse_edge).lookahead;
      eng->post(reverse_edge, t, &next, sizeof(next));
    }
  }
};

std::vector<std::pair<Time, int>> run_ping_pong(std::size_t shards) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(shards);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");

  int budget = 20;
  std::vector<std::pair<Time, int>> log;
  PingPong on_b;  // receives a -> b, replies on b -> a
  PingPong on_a;  // receives b -> a, replies on a -> b
  // Asymmetric lookaheads so the window is set by one edge and the reply
  // path exercises the other.
  const std::size_t ab =
      eng.add_edge(pa, pb, milliseconds(3), on_b, sizeof(int));
  const std::size_t ba =
      eng.add_edge(pb, pa, milliseconds(7), on_a, sizeof(int));
  on_b.eng = &eng;
  on_b.sim = &b;
  on_b.reverse_edge = ba;
  on_b.budget = &budget;
  on_b.log = &log;
  on_a.eng = &eng;
  on_a.sim = &a;
  on_a.reverse_edge = ab;
  on_a.budget = &budget;
  on_a.log = &log;

  a.at(milliseconds(1), [&] { post_now(eng, a, ab, 0); });
  eng.run_until(seconds(10));
  return log;
}

TEST(ShardEngineTest, ExecutionIsIdenticalForAnyShardCount) {
  const auto one = run_ping_pong(1);
  const auto two = run_ping_pong(2);
  const auto four = run_ping_pong(4);
  ASSERT_EQ(one.size(), 21u);  // initial message + 20 budgeted replies
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // Spot-check the schedule itself: hop k lands at 1ms + ceil(k/2)*(3+7)ms
  // alternating the 3 ms and 7 ms legs.
  EXPECT_EQ(one[0], (std::pair<Time, int>{milliseconds(4), 0}));
  EXPECT_EQ(one[1], (std::pair<Time, int>{milliseconds(11), 1}));
  EXPECT_EQ(one[2], (std::pair<Time, int>{milliseconds(14), 2}));
}

TEST(ShardEngineTest, IdleStretchesAreSkippedInOneEpoch) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(2);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  eng.add_edge(pa, pb, milliseconds(1), sink, sizeof(int));

  int fired = 0;
  a.at(kTimeZero, [&] { ++fired; });
  a.at(seconds(3600), [&] { ++fired; });  // one hour of nothing in between
  eng.run_until(seconds(7200));

  EXPECT_EQ(fired, 2);
  // A naive fixed-window loop would need 3600s / 1ms = 3.6M epochs; the
  // earliest-event scan must cover the gap in a handful.
  EXPECT_LE(eng.epochs(), 4u);
}

TEST(ShardEngineTest, SinglePlaceWithoutEdgesRunsInOneEpoch) {
  Simulation a(1);
  ShardEngine eng(1);
  eng.add_place(a, "solo");
  int fired = 0;
  a.at(milliseconds(1), [&] { ++fired; });
  a.at(milliseconds(2), [&] { ++fired; });
  const std::size_t executed = eng.run_until(seconds(1));
  EXPECT_EQ(fired, 2);
  EXPECT_GE(executed, 2u);
  EXPECT_EQ(eng.epochs(), 1u);
  EXPECT_EQ(eng.now(), seconds(1));
}

TEST(ShardEngineTest, DoneAtBarrierStopsEarly) {
  Simulation a(1);
  ShardEngine eng(1);
  eng.add_place(a, "a");
  // Completion predicates are consulted between epochs; here an edge's
  // lookahead bounds the window (the edgeless case is tested below).
  Simulation b(2);
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  eng.add_edge(0, pb, milliseconds(5), sink, sizeof(int));

  int count = 0;
  for (int i = 1; i <= 100; ++i) {
    a.at(milliseconds(i), [&] { ++count; });
  }
  eng.run_until(seconds(1), [&] { return count >= 10; });
  EXPECT_GE(count, 10);
  EXPECT_LT(count, 100);  // stopped well before the stop time
  EXPECT_LT(eng.now(), seconds(1));
}

TEST(ShardEngineTest, EdgelessEnginePollsDonePredicate) {
  // No edge bounds the window, so without polling the first epoch would
  // run to the stop time before the predicate is ever consulted.
  Simulation a(1);
  ShardEngine eng(1);
  eng.add_place(a, "solo");
  int count = 0;
  for (int i = 1; i <= 10'000; ++i) {
    a.at(milliseconds(i), [&] { ++count; });
  }
  eng.run_until(seconds(100), [&] { return count >= 10; });
  EXPECT_GE(count, 10);
  EXPECT_LE(count, 210);  // at most one 200 ms poll period past the 10th
  EXPECT_LT(eng.now(), milliseconds(300));
}

TEST(ShardEngineTest, OnePartyRunsOnTheCallersThread) {
  // One place leaves one party whatever the shard count: its epochs run
  // on the calling thread, with no pool hand-off per epoch.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Simulation a(1);
    ShardEngine eng(shards);
    eng.add_place(a, "solo");
    std::thread::id ran_on;
    a.at(milliseconds(1), [&] { ran_on = std::this_thread::get_id(); });
    eng.run_until(seconds(1));
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "shards=" << shards;
  }
}

TEST(ShardEngineTest, PostBeforeFirstRunThrows) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(1);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  const std::size_t e =
      eng.add_edge(pa, pb, milliseconds(1), sink, sizeof(int));
  const int v = 1;
  EXPECT_THROW(eng.post(e, milliseconds(1), &v, sizeof(v)),
               std::logic_error);
}

TEST(ShardEngineTest, LookaheadContractViolationThrowsLoudly) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(2);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  const std::size_t e =
      eng.add_edge(pa, pb, milliseconds(10), sink, sizeof(int));

  // The event claims a 10 ms lookahead but posts for "now" — inside the
  // window other places are concurrently executing.
  a.at(milliseconds(5), [&] {
    const int v = 7;
    eng.post(e, a.now(), &v, sizeof(v));
  });
  EXPECT_THROW(eng.run_until(seconds(1)), std::logic_error);
}

TEST(ShardEngineTest, OversizedMessageThrowsAtDrain) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(2);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  const std::size_t e = eng.add_edge(pa, pb, milliseconds(1), sink, 4);

  a.at(kTimeZero, [&] {
    const unsigned char big[16] = {};
    eng.post(e, milliseconds(1), big, sizeof(big));
  });
  EXPECT_THROW(eng.run_until(seconds(1)), std::length_error);
}

TEST(ShardEngineTest, LookaheadUpdateValidatedNowAppliedAtBarrier) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(2);
  const std::size_t pa = eng.add_place(a, "a");
  const std::size_t pb = eng.add_place(b, "b");
  RecordingSink sink;
  sink.sim = &b;
  const std::size_t e =
      eng.add_edge(pa, pb, milliseconds(10), sink, sizeof(int));

  // Zero/negative updates are rejected immediately, pre- or mid-run.
  EXPECT_THROW(eng.request_lookahead_update(e, 0), std::invalid_argument);

  // Pre-start updates take effect immediately.
  eng.request_lookahead_update(e, milliseconds(4));
  EXPECT_EQ(eng.partition().edge(e).lookahead, milliseconds(4));

  // Mid-run updates land at the epoch barrier; by the end of the run the
  // partition reflects the new bound and messages posted under it arrive.
  a.at(milliseconds(1), [&] {
    eng.request_lookahead_update(e, milliseconds(20));
  });
  a.at(seconds(1), [&] { post_now(eng, a, e, 9); });
  eng.run_until(seconds(2));
  EXPECT_EQ(eng.partition().edge(e).lookahead, milliseconds(20));
  ASSERT_EQ(sink.recs.size(), 1u);
  EXPECT_EQ(sink.recs[0].delivered_at, seconds(1) + milliseconds(20));
}

TEST(ShardEngineTest, TopologyFreezesAfterFirstRun) {
  Simulation a(1);
  Simulation b(2);
  ShardEngine eng(1);
  eng.add_place(a, "a");
  eng.run_until(milliseconds(1));
  EXPECT_THROW(eng.add_place(b, "late"), std::logic_error);
}

}  // namespace
}  // namespace emptcp::sim
