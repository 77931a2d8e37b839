#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "stats/trace_export.hpp"
#include "trace/sink.hpp"
#include "trace/trace_diff.hpp"

namespace emptcp::trace {
namespace {

TEST(TraceSinkTest, DisabledByDefaultAndEmpty) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSinkTest, MacroGateSkipsArgumentEvaluationWhenFullyOff) {
  sim::Simulation sim(1);
  int evals = 0;
  auto stamp = [&] {
    ++evals;
    return sim::Time{0};
  };
  // Default state: retention off, flight recorder on — the macro must run
  // so the ring sees the event, but nothing lands in the trace stream.
  EMPTCP_TRACE(sim, tcp_state(stamp(), 1, "closed", "syn_sent"));
#if EMPTCP_TRACE_COMPILED
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(sim.trace().flight().total(), 1u);
#else
  EXPECT_EQ(evals, 0);
#endif
  EXPECT_EQ(sim.trace().size(), 0u);

  // Fully off (retention off + flight recorder off): neither the record
  // call nor its arguments run.
  sim.trace().flight_enable(false);
  EMPTCP_TRACE(sim, tcp_state(stamp(), 1, "closed", "syn_sent"));
#if EMPTCP_TRACE_COMPILED
  EXPECT_EQ(evals, 1);
#else
  EXPECT_EQ(evals, 0);
#endif
  EXPECT_EQ(sim.trace().size(), 0u);

  sim.trace().enable();
  EMPTCP_TRACE(sim, tcp_state(stamp(), 1, "closed", "syn_sent"));
#if EMPTCP_TRACE_COMPILED
  EXPECT_EQ(evals, 2);
  ASSERT_EQ(sim.trace().size(), 1u);
  EXPECT_EQ(sim.trace().events()[0].kind, Kind::kTcpState);
#else
  EXPECT_EQ(evals, 0);
  EXPECT_EQ(sim.trace().size(), 0u);
#endif
}

TEST(TraceSinkTest, TypedRecordsCarryTheirFields) {
  TraceSink sink;
  sink.enable();
  sink.tcp_state(sim::milliseconds(5), 42, "closed", "syn_sent");
  sink.sched_pick(sim::milliseconds(6), 1, "wifi", 4096, 1460);
  sink.mp_prio(sim::milliseconds(7), 1, "lte", true, "peer");
  sink.energy_sample(sim::milliseconds(8), 2, "lte", 7.5, 1210.0);
  sink.warning(sim::milliseconds(9), "energy.byte_counter_backwards", 100, 10);

  // sched_pick is a per-ACK kind: the flight recorder has it, the
  // retained stream does not.
  const std::vector<Event> flight = sink.flight().tail();
  ASSERT_EQ(flight.size(), 5u);
  EXPECT_EQ(flight[1].kind, Kind::kSchedPick);
  EXPECT_EQ(flight[1].i0, 4096);
  EXPECT_EQ(flight[1].i1, 1460);

  ASSERT_EQ(sink.size(), 4u);
  const auto& ev = sink.events();
  EXPECT_EQ(ev[0].kind, Kind::kTcpState);
  EXPECT_EQ(ev[0].t, sim::milliseconds(5));
  EXPECT_EQ(ev[0].id, 42u);
  EXPECT_STREQ(ev[0].label, "closed");
  EXPECT_STREQ(ev[0].label2, "syn_sent");

  EXPECT_EQ(ev[1].kind, Kind::kMpPrio);
  EXPECT_EQ(ev[1].i0, 1);
  EXPECT_STREQ(ev[1].label2, "peer");

  EXPECT_EQ(ev[2].kind, Kind::kEnergySample);
  EXPECT_DOUBLE_EQ(ev[2].d0, 7.5);
  EXPECT_DOUBLE_EQ(ev[2].d1, 1210.0);

  EXPECT_EQ(ev[3].kind, Kind::kWarning);
  EXPECT_EQ(ev[3].i0, 100);
  EXPECT_EQ(ev[3].i1, 10);

  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

/// Records every event it is handed.
struct CollectingObserver : EventObserver {
  void on_trace_event(const Event& e) override { seen.push_back(e.kind); }
  std::vector<Kind> seen;
};

TEST(TraceSinkTest, PerAckKindsReachFlightRecorderAndObserverButNotEvents) {
  TraceSink sink;
  sink.enable();
  CollectingObserver obs;
  sink.set_observer(&obs);
  sink.cwnd(sim::milliseconds(1), 7, 14600, 65535);
  sink.srtt(sim::milliseconds(2), 7, sim::milliseconds(50),
            sim::milliseconds(300));
  sink.sched_pick(sim::milliseconds(3), 1, "wifi", 4096, 1460);
  sink.flow_start(sim::milliseconds(4), 7, 1000);

  const std::vector<Kind> all{Kind::kCwnd, Kind::kSrtt, Kind::kSchedPick,
                              Kind::kFlowStart};
  EXPECT_EQ(obs.seen, all);
  const std::vector<Event> flight = sink.flight().tail();
  ASSERT_EQ(flight.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(flight[i].kind, all[i]);
  }
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, Kind::kFlowStart);

  for (const Kind k : {Kind::kCwnd, Kind::kSrtt, Kind::kSchedPick}) {
    EXPECT_FALSE(TraceSink::retained(k)) << to_string(k);
  }
  EXPECT_TRUE(TraceSink::retained(Kind::kTcpState));
  EXPECT_TRUE(TraceSink::retained(Kind::kFlowComplete));
  sink.set_observer(nullptr);
}

TEST(TraceSinkTest, KindNamesAreStable) {
  EXPECT_STREQ(to_string(Kind::kTcpState), "tcp_state");
  EXPECT_STREQ(to_string(Kind::kCwnd), "cwnd");
  EXPECT_STREQ(to_string(Kind::kSrtt), "srtt");
  EXPECT_STREQ(to_string(Kind::kSchedPick), "sched_pick");
  EXPECT_STREQ(to_string(Kind::kMpPrio), "mp_prio");
  EXPECT_STREQ(to_string(Kind::kModeChange), "mode_change");
  EXPECT_STREQ(to_string(Kind::kRadioState), "radio_state");
  EXPECT_STREQ(to_string(Kind::kEnergySample), "energy_sample");
  EXPECT_STREQ(to_string(Kind::kChannelRate), "channel_rate");
  EXPECT_STREQ(to_string(Kind::kWarning), "warning");
}

TEST(MetricsTest, FindOrCreateReturnsStableHandles) {
  Metrics m;
  Counter& a = m.counter("tcp.retransmits");
  Counter& b = m.counter("tcp.retransmits");
  EXPECT_EQ(&a, &b);
  a.add();
  a.add(4);
  EXPECT_EQ(b.value(), 5u);

  Gauge& g = m.gauge("wifi.mbps");
  g.set(12.5);
  EXPECT_DOUBLE_EQ(m.gauge("wifi.mbps").value(), 12.5);

  // Growing the registry must not invalidate earlier handles.
  for (int i = 0; i < 64; ++i) {
    m.counter("c" + std::to_string(i));
  }
  a.add();
  EXPECT_EQ(m.counter("tcp.retransmits").value(), 6u);
}

TEST(MetricsTest, SnapshotIsRegistrationOrderCountersFirst) {
  Metrics m;
  m.gauge("g.one").set(1.5);
  m.counter("c.one").add(2);
  m.counter("c.two").add(3);
  m.gauge("g.two").set(-4.0);

  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "c.one");
  EXPECT_DOUBLE_EQ(snap[0].value, 2.0);
  EXPECT_EQ(snap[1].name, "c.two");
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);
  EXPECT_EQ(snap[2].name, "g.one");
  EXPECT_DOUBLE_EQ(snap[2].value, 1.5);
  EXPECT_EQ(snap[3].name, "g.two");
  EXPECT_DOUBLE_EQ(snap[3].value, -4.0);
}

TEST(TraceDiffTest, IdenticalTextDiffsClean) {
  const std::string text = "line one\nline two\n";
  const TraceDiff d = diff_trace_text(text, text);
  EXPECT_TRUE(d.identical);
  EXPECT_EQ(d.line, 0u);
}

TEST(TraceDiffTest, ReportsFirstDivergentLine) {
  const TraceDiff d = diff_trace_text("a\nb\nc\n", "a\nX\nc\n");
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.a_line, "b");
  EXPECT_EQ(d.b_line, "X");
  EXPECT_FALSE(d.describe().empty());
}

TEST(TraceDiffTest, MissingTrailingLineReported) {
  const TraceDiff d = diff_trace_text("a\n", "a\nb\n");
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.a_line, "<missing>");
  EXPECT_EQ(d.b_line, "b");
}

TEST(TraceExportTest, JsonlUsesPerKindSchemaNames) {
  // Built directly: the exporter serializes any event vector, including
  // kinds the sink does not retain.
  const std::vector<Event> events{
      {sim::milliseconds(1), Kind::kTcpState, 7, "syn_sent", "established",
       0, 0, 0.0, 0.0},
      {sim::milliseconds(2), Kind::kCwnd, 7, nullptr, nullptr, 14600, 65535,
       0.0, 0.0},
      {sim::milliseconds(3), Kind::kModeChange, 0, "all_paths", "wifi_only",
       0, 0, 12.5, 9.0},
  };
  Metrics metrics;
  metrics.counter("tcp.rtos").add(2);

  const std::string jsonl = stats::trace_to_jsonl(events, metrics.snapshot());
  const std::string expected =
      "{\"t_ns\":1000000,\"kind\":\"tcp_state\",\"flow\":7,"
      "\"from\":\"syn_sent\",\"to\":\"established\"}\n"
      "{\"t_ns\":2000000,\"kind\":\"cwnd\",\"flow\":7,\"cwnd\":14600,"
      "\"ssthresh\":65535}\n"
      "{\"t_ns\":3000000,\"kind\":\"mode_change\",\"from\":\"all_paths\","
      "\"to\":\"wifi_only\",\"wifi_mbps\":12.5,\"cell_mbps\":9}\n"
      "{\"metric\":\"tcp.rtos\",\"value\":2}\n";
  EXPECT_EQ(jsonl, expected);
}

TEST(TraceExportTest, JsonlDoublesRoundTripShortest) {
  TraceSink sink;
  sink.enable();
  // 0.1 is not exactly representable; the formatter must still print the
  // shortest string that round-trips, not 17 digits of noise.
  sink.channel_rate(0, "onoff", 0.1, 1.0 / 3.0);
  const std::string jsonl = stats::trace_to_jsonl(sink.events());
  EXPECT_NE(jsonl.find("\"mbps\":0.1,"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"extra\":0.3333333333333333"), std::string::npos)
      << jsonl;
}

TEST(TraceExportTest, CsvHasFixedColumnsAndOneRowPerEvent) {
  const std::vector<Event> events{
      {sim::milliseconds(4), Kind::kSrtt, 3, nullptr, nullptr,
       sim::milliseconds(50), sim::milliseconds(300), 0.0, 0.0},
      {sim::milliseconds(5), Kind::kWarning, 0, "w", nullptr, 1, 2, 0.0, 0.0},
  };

  const std::string csv = stats::trace_to_csv(events);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "t_ns,kind,id,label,label2,i0,i1,d0,d1");
  int lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);  // header + 2 events
  EXPECT_NE(csv.find("srtt"), std::string::npos);
}

}  // namespace
}  // namespace emptcp::trace
