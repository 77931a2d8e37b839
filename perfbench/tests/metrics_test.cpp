// Unit tests of the benchmark's metric arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "metrics.hpp"

namespace perfbench {
namespace {

emptcp::workload::FlowRecord flow(std::uint64_t bytes, std::uint64_t delivered,
                                  bool completed) {
  emptcp::workload::FlowRecord f;
  f.bytes = bytes;
  f.delivered = delivered;
  f.completed = completed;
  return f;
}

TEST(FlowTallyTest, InFlightFlowsCountInNeitherPartOfAWindow) {
  const std::vector<emptcp::workload::FlowRecord> flows = {
      flow(100, 100, true), flow(100, 40, false), flow(100, 100, true),
      flow(50, 10, false)};
  const FlowTally t = tally_flows(flows, false);
  EXPECT_EQ(t.completed, 2u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.in_flight, 2u);
  EXPECT_EQ(t.attempted(), 2u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.0);
}

TEST(FlowTallyTest, UnfinishedFlowsFailWhenTheRunHasEnded) {
  const std::vector<emptcp::workload::FlowRecord> flows = {
      flow(100, 100, true), flow(100, 40, false), flow(100, 100, true),
      flow(50, 10, false)};
  const FlowTally t = tally_flows(flows, true);
  EXPECT_EQ(t.completed, 2u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.wrong_bytes, 0u);
  EXPECT_EQ(t.in_flight, 0u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.5);
}

TEST(FlowTallyTest, CompletedFlowWithWrongByteCountFails) {
  const std::vector<emptcp::workload::FlowRecord> flows = {
      flow(100, 99, true), flow(100, 100, true), flow(100, 101, true),
      flow(100, 100, true)};
  const FlowTally t = tally_flows(flows, false);
  EXPECT_EQ(t.completed, 2u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.wrong_bytes, 2u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.5);
}

TEST(FlowTallyTest, NothingEndedMeansNoFailureShare) {
  const FlowTally t = tally_flows({flow(10, 0, false)}, false);
  EXPECT_EQ(t.attempted(), 0u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.0);
}

TEST(FidelityErrorTest, RatiosAreRelativeToThePacketRun) {
  const WindowOutput packet{1000.0, 2.0};  // 2 J over 8000 bits
  const WindowOutput hybrid{1100.0, 2.0};  // 10% more bytes, same energy
  const FidelityError e = fidelity_error(hybrid, packet);
  EXPECT_NEAR(e.goodput, 0.1, 1e-12);
  // J/bit: hybrid 2/8800, packet 2/8000 -> |8000/8800 - 1| = 1/11.
  EXPECT_NEAR(e.energy, 1.0 / 11.0, 1e-12);
}

TEST(FidelityErrorTest, ErrorIsSymmetricInSignAndZeroWhenEqual) {
  const WindowOutput packet{1000.0, 2.0};
  EXPECT_NEAR(fidelity_error({900.0, 2.0}, packet).goodput, 0.1, 1e-12);
  const FidelityError same = fidelity_error(packet, packet);
  EXPECT_DOUBLE_EQ(same.goodput, 0.0);
  EXPECT_DOUBLE_EQ(same.energy, 0.0);
}

TEST(FidelityErrorTest, EmptyReferenceIsNotFinite) {
  EXPECT_TRUE(std::isinf(relative_error(1.0, 0.0)));
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
}

TEST(SelfTimeTest, ChildrenAreSubtractedFromTheirParentOnly) {
  // root [0,100) has children a [10,30) and b [50,90); b has child c
  // [60,70).
  const std::vector<SpanTimes> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 30}, {3, 1, 50, 90}, {4, 3, 60, 70}};
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 40u);  // 100 - 20 - 40
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 30u);  // 40 - 10
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTimeTest, OverlappingChildrenAreCountedOnce) {
  const std::vector<SpanTimes> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 50}, {3, 1, 30, 60}, {4, 1, 80, 90}};
  EXPECT_EQ(self_times_ns(spans)[0], 40u);  // covered: [10,60) + [80,90)
}

TEST(SelfTimeTest, ChildTimeOutsideTheParentIsIgnored) {
  const std::vector<SpanTimes> spans = {{1, 0, 10, 20}, {2, 1, 5, 15}};
  EXPECT_EQ(self_times_ns(spans)[0], 5u);
  EXPECT_EQ(self_times_ns(spans)[1], 10u);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(FlowDigestTest, AnyFieldChangesTheDigest) {
  std::vector<emptcp::workload::FlowRecord> a = {flow(100, 100, true)};
  std::vector<emptcp::workload::FlowRecord> b = a;
  EXPECT_EQ(flow_digest(a), flow_digest(b));
  b[0].end_s = 1e-9;
  EXPECT_NE(flow_digest(a), flow_digest(b));
}

}  // namespace
}  // namespace perfbench
