#include "analysis/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/manifest.hpp"
#include "analysis/rollup.hpp"
#include "app/scenario.hpp"
#include "stats/trace_export.hpp"
#include "workload/sharded_fleet.hpp"

namespace emptcp::analysis {
namespace {

// A tiny hand-written trace exercising every rollup path: a suspend/resume
// pair, energy samples, a warning, the scheduler counters for two
// interfaces and the run.* gauge snapshot.
constexpr const char* kTraceJsonl =
    R"({"t_ns":4000000,"kind":"mp_prio","subflow":2,"iface":"cell","backup":true,"origin":"sender"}
{"t_ns":5000000,"kind":"mp_prio","subflow":2,"iface":"cell","backup":false,"origin":"sender"}
{"t_ns":6000000,"kind":"mode_change","from":"all-paths","to":"wifi-only","wifi_mbps":20,"cell_mbps":5}
{"t_ns":7000000,"kind":"radio_state","iface":"cell","state":"IDLE"}
{"t_ns":1000000000,"kind":"energy_sample","iface":"wifi","mbps":10,"power_mw":500}
{"t_ns":2000000000,"kind":"energy_sample","iface":"wifi","mbps":12,"power_mw":700}
{"t_ns":8000000,"kind":"warning","what":"test","v0":1,"v1":2}
{"metric":"run.completed","value":1}
{"metric":"run.download_time_s","value":2}
{"metric":"run.energy_j","value":1.25}
{"metric":"run.wifi_j","value":1}
{"metric":"run.cell_j","value":0.25}
{"metric":"run.bytes_received","value":2600}
{"metric":"tcp.retransmits","value":3}
{"metric":"mptcp.sched_picks","value":3}
{"metric":"mptcp.sched_bytes.wifi","value":2000}
{"metric":"mptcp.sched_bytes.cell","value":600}
)";

RunManifest test_manifest(const std::string& group, const std::string& proto,
                          std::uint64_t seed) {
  RunManifest m;
  m.group = group;
  m.protocol = proto;
  m.seed = seed;
  m.workload = "unit-test";
  m.trace_digest = fnv1a64_hex(kTraceJsonl);
  return m;
}

TEST(RollupTest, ParseTraceSeparatesEventsFromMetrics) {
  TraceData t;
  ASSERT_TRUE(parse_trace_jsonl(kTraceJsonl, t));
  EXPECT_EQ(t.events.size(), 7u);
  EXPECT_EQ(t.metrics.size(), 10u);
  EXPECT_DOUBLE_EQ(t.metric("run.energy_j", 0.0), 1.25);
  EXPECT_DOUBLE_EQ(t.metric("missing", -1.0), -1.0);
}

TEST(RollupTest, MalformedLineReportsLineNumber) {
  TraceData t;
  std::string err;
  EXPECT_FALSE(parse_trace_jsonl("{\"t_ns\":1}\n{broken\n", t, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos);
}

TEST(RollupTest, RollupComputesPaperMetrics) {
  TraceData t;
  ASSERT_TRUE(parse_trace_jsonl(kTraceJsonl, t));
  const RunRollup r = rollup_run(test_manifest("g", "emptcp", 1), t);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.time_s, 2.0);
  EXPECT_DOUBLE_EQ(r.energy_j, 1.25);
  EXPECT_EQ(r.bytes, 2600u);
  EXPECT_EQ(r.sched_picks, 3u);
  EXPECT_EQ(r.suspends, 1u);
  EXPECT_EQ(r.resumes, 1u);
  EXPECT_EQ(r.mode_changes, 1u);
  EXPECT_EQ(r.radio_transitions, 1u);
  EXPECT_EQ(r.warnings, 1u);
  EXPECT_EQ(r.events, 7u);
  EXPECT_EQ(r.retransmits, 3u);
  // wifi got 2000 of 2600 scheduled bytes.
  EXPECT_DOUBLE_EQ(r.iface_share("wifi"), 2000.0 / 2600.0);
  EXPECT_DOUBLE_EQ(r.iface_share("cell"), 600.0 / 2600.0);
  // Energy per bit: 1.25 J over 2600*8 bits -> µJ/bit.
  EXPECT_DOUBLE_EQ(r.energy_per_bit_uj(), 1.25e6 / (2600.0 * 8.0));
  // Integration: wifi sample at t=1s integrates from 0 (500 mW * 1 s) plus
  // the 700 mW window ending at t=2s.
  EXPECT_DOUBLE_EQ(r.integrated_energy_j, 0.5 + 0.7);
}

TEST(RollupTest, StreamingBuilderMatchesBatchRollup) {
  // Folding the trace line-by-line through add_line (the emptcp-report
  // streaming path) must agree exactly with the materialized rollup.
  TraceData t;
  ASSERT_TRUE(parse_trace_jsonl(kTraceJsonl, t));
  const RunManifest m = test_manifest("g", "emptcp", 1);
  const RunRollup batch = rollup_run(m, t);

  RollupBuilder b(m);
  std::string_view text = kTraceJsonl;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const auto doc = parse_json_flat(text.substr(pos, nl - pos));
    ASSERT_TRUE(doc.has_value());
    b.add_line(*doc);
    pos = nl + 1;
  }
  const RunRollup streamed = b.finish();
  EXPECT_EQ(streamed.events, batch.events);
  EXPECT_EQ(streamed.sched_picks, batch.sched_picks);
  EXPECT_EQ(streamed.sched_bytes_by_iface, batch.sched_bytes_by_iface);
  EXPECT_EQ(streamed.suspends, batch.suspends);
  EXPECT_DOUBLE_EQ(streamed.energy_j, batch.energy_j);
  EXPECT_DOUBLE_EQ(streamed.integrated_energy_j, batch.integrated_energy_j);
  EXPECT_EQ(streamed.bytes, batch.bytes);
  EXPECT_EQ(streamed.retransmits, batch.retransmits);
  // The single pass also produced the power-timeline windows.
  EXPECT_GT(b.power().count(), 0u);
}

/// One campaign-style cell (a one-cell fleet, traced) rolled up from its
/// serialized artifact, as emptcp-report sees it.
RunRollup rollup_fleet_cell(app::Protocol protocol) {
  workload::FleetConfig cfg;
  cfg.protocol = protocol;
  cfg.clients = 2;
  cfg.flows_per_client = 1;
  cfg.flow_size.kind = workload::SizeDist::Kind::kFixed;
  cfg.flow_size.mean_bytes = 1'000'000;
  cfg.scenario.trace = true;
  cfg.scenario.record_series = false;
  const workload::FleetMetrics m = workload::ClientFleet(cfg).run(1);
  EXPECT_EQ(m.flows_completed, 2u);
  const std::string jsonl =
      stats::trace_to_jsonl(m.run.trace_events, m.run.trace_metrics);
  EXPECT_EQ(jsonl.find("\"kind\":\"sched_pick\""), std::string::npos);
  TraceData t;
  EXPECT_TRUE(parse_trace_jsonl(jsonl, t));
  RunRollup r =
      rollup_run(test_manifest("cell", app::to_string(protocol), 1), t);
  EXPECT_DOUBLE_EQ(t.metric("mptcp.sched_picks", -1.0),
                   static_cast<double>(r.sched_picks));
  return r;
}

TEST(RollupTest, SchedulerActivityComesFromCounters) {
  // MPTCP spreads the flows over both radios: every flow byte was assigned
  // at least once, and the shares of the two interfaces add up to one.
  const RunRollup mp = rollup_fleet_cell(app::Protocol::kMptcp);
  EXPECT_GT(mp.sched_picks, 0u);
  std::uint64_t assigned = 0;
  for (const auto& [iface, bytes] : mp.sched_bytes_by_iface) {
    assigned += bytes;
  }
  EXPECT_GE(assigned, 2'000'000u);
  EXPECT_GT(mp.iface_share("wifi"), 0.0);
  EXPECT_GT(mp.iface_share("lte"), 0.0);
  EXPECT_DOUBLE_EQ(mp.iface_share("wifi") + mp.iface_share("lte"), 1.0);

  // TCP/WiFi assigns everything to its one subflow.
  const RunRollup tcp = rollup_fleet_cell(app::Protocol::kTcpWifi);
  EXPECT_GT(tcp.sched_picks, 0u);
  EXPECT_DOUBLE_EQ(tcp.iface_share("wifi"), 1.0);
}

TEST(ManifestStreamTest, ChunkedDigestMatchesWholeString) {
  const std::string text(kTraceJsonl);
  Fnv1a64Stream s;
  // Deliberately awkward chunking: 7-byte pieces.
  for (std::size_t i = 0; i < text.size(); i += 7) {
    s.update(std::string_view(text).substr(i, 7));
  }
  EXPECT_EQ(s.value(), fnv1a64(text));
  EXPECT_EQ(s.hex(), fnv1a64_hex(text));
}

TEST(ReportTest, RenderIsDeterministicAndOrderIndependent) {
  TraceData t;
  ASSERT_TRUE(parse_trace_jsonl(kTraceJsonl, t));
  LoadedRun a{test_manifest("g", "emptcp", 1), t, true, "a"};
  LoadedRun b{test_manifest("g", "emptcp", 2), t, true, "b"};
  LoadedRun c{test_manifest("g", "mptcp", 1), t, true, "c"};
  const std::string fwd = render_report({a, b, c});
  const std::string rev = render_report({c, b, a});
  EXPECT_EQ(fwd, rev);
  EXPECT_NE(fwd.find("== runs =="), std::string::npos);
  EXPECT_NE(fwd.find("== energy per bit =="), std::string::npos);
  EXPECT_NE(fwd.find("== quantiles"), std::string::npos);
  EXPECT_NE(fwd.find("== integrity =="), std::string::npos);
}

TEST(ReportTest, DigestMismatchSurfacesInIntegritySection) {
  TraceData t;
  ASSERT_TRUE(parse_trace_jsonl(kTraceJsonl, t));
  LoadedRun bad{test_manifest("g", "emptcp", 1), t, false, "stale.json"};
  const std::string report = render_report({bad});
  EXPECT_NE(report.find("DIGEST MISMATCH"), std::string::npos);
  EXPECT_NE(report.find("stale.json"), std::string::npos);
}

TEST(DiffTest, GlobMatchSemantics) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("scheduler.*", "scheduler.ns_per_op"));
  EXPECT_FALSE(glob_match("scheduler.*", "packet.ns_per_op"));
  EXPECT_TRUE(glob_match("*alloc*", "end_to_end.allocs_per_op"));
  EXPECT_TRUE(glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-x-b-y"));
  EXPECT_TRUE(glob_match("exact", "exact"));
  EXPECT_FALSE(glob_match("exact", "exact-no"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(DiffTest, ParseToleranceSpecs) {
  ToleranceRule r;
  ASSERT_TRUE(parse_tolerance("*alloc*=abs:0.5", r));
  EXPECT_EQ(r.pattern, "*alloc*");
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kMaxAbs);
  EXPECT_DOUBLE_EQ(r.tol, 0.5);
  ASSERT_TRUE(parse_tolerance("x=factor:2", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kMaxFactor);
  ASSERT_TRUE(parse_tolerance("x=min:1.5", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kMinFactor);
  ASSERT_TRUE(parse_tolerance("x=ignore", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kIgnore);
  ASSERT_TRUE(parse_tolerance("x=exact", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kExact);
  EXPECT_FALSE(parse_tolerance("missing-equals", r));
  EXPECT_FALSE(parse_tolerance("x=unknown:1", r));
  EXPECT_FALSE(parse_tolerance("x=factor:0.5", r));  // factor < 1 is nonsense
  EXPECT_FALSE(parse_tolerance("x=abs:-1", r));
}

FlatJson doc(const char* json) {
  auto d = parse_json_flat(json);
  EXPECT_TRUE(d.has_value());
  return d.value_or(FlatJson{});
}

TEST(DiffTest, InjectedRegressionViolates) {
  const FlatJson base = doc(R"({"scheduler":{"ns_per_op":100},"schema":"v1"})");
  const FlatJson good = doc(R"({"scheduler":{"ns_per_op":120},"schema":"v1"})");
  const FlatJson bad = doc(R"({"scheduler":{"ns_per_op":900},"schema":"v1"})");
  const std::vector<ToleranceRule> rules{
      {"schema", ToleranceRule::Mode::kExact, 0.0},
      {"*ns_per*", ToleranceRule::Mode::kMaxFactor, 5.0},
      {"*", ToleranceRule::Mode::kIgnore, 0.0},
  };
  EXPECT_EQ(diff_metrics(base, good, rules).violations, 0);
  const DiffResult r = diff_metrics(base, bad, rules);
  EXPECT_EQ(r.violations, 1);
  EXPECT_NE(r.render().find("FAIL"), std::string::npos);
  EXPECT_NE(r.render().find("1 violation"), std::string::npos);
}

TEST(DiffTest, ExactRuleCatchesSchemaDrift) {
  const FlatJson base = doc(R"({"schema":"v1"})");
  const FlatJson cur = doc(R"({"schema":"v2"})");
  const std::vector<ToleranceRule> rules{
      {"schema", ToleranceRule::Mode::kExact, 0.0}};
  EXPECT_EQ(diff_metrics(base, cur, rules).violations, 1);
  EXPECT_EQ(diff_metrics(base, base, rules).violations, 0);
}

TEST(DiffTest, MissingAndNewKeys) {
  const FlatJson base = doc(R"({"a":1,"b":2})");
  const FlatJson cur = doc(R"({"a":1,"c":3})");
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kMaxAbs, 10.0}};
  const DiffResult r = diff_metrics(base, cur, rules);
  // "b" vanished (violation under a non-ignore rule); "c" is new (not one).
  EXPECT_EQ(r.violations, 1);
  bool saw_new = false;
  for (const auto& row : r.rows) {
    if (row.key == "c") {
      saw_new = true;
      EXPECT_EQ(row.verdict, "new");
      EXPECT_FALSE(row.violation);
    }
  }
  EXPECT_TRUE(saw_new);
  // Under an all-ignore ruleset the vanished key is fine too.
  const std::vector<ToleranceRule> ignore{
      {"*", ToleranceRule::Mode::kIgnore, 0.0}};
  EXPECT_EQ(diff_metrics(base, cur, ignore).violations, 0);
}

TEST(DiffTest, MinFactorGuardsThroughputDrops) {
  const FlatJson base = doc(R"({"events_per_sec":1000000})");
  const FlatJson slow = doc(R"({"events_per_sec":100000})");
  const std::vector<ToleranceRule> rules{
      {"*per_sec*", ToleranceRule::Mode::kMinFactor, 5.0}};
  EXPECT_EQ(diff_metrics(base, slow, rules).violations, 1);
  const FlatJson ok = doc(R"({"events_per_sec":500000})");
  EXPECT_EQ(diff_metrics(base, ok, rules).violations, 0);
}

TEST(DiffTest, FloorIsAbsoluteRegardlessOfBaseline) {
  ToleranceRule r;
  ASSERT_TRUE(parse_tolerance("*hybrid*.speedup_vs_packet=floor:2", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kFloor);
  EXPECT_DOUBLE_EQ(r.tol, 2.0);

  // The floor binds against the configured value, not the baseline: a
  // baseline that itself regressed below the floor must not grandfather
  // the current run in.
  const FlatJson base = doc(R"({"speedup_vs_packet":1.2})");
  const FlatJson below = doc(R"({"speedup_vs_packet":1.9})");
  const FlatJson above = doc(R"({"speedup_vs_packet":2.1})");
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kFloor, 2.0}};
  EXPECT_EQ(diff_metrics(base, below, rules).violations, 1);
  EXPECT_EQ(diff_metrics(base, above, rules).violations, 0);
}

TEST(DiffTest, NearBandCombinesRelativeAndAbsoluteTerms) {
  ToleranceRule r;
  ASSERT_TRUE(parse_tolerance("*.fct_s=near:0.25,0.25", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kNear);
  EXPECT_DOUBLE_EQ(r.tol, 0.25);
  EXPECT_DOUBLE_EQ(r.tol_abs, 0.25);
  // Both terms are mandatory and non-negative ("near:REL,ABS").
  EXPECT_FALSE(parse_tolerance("x=near:0.1", r));
  EXPECT_FALSE(parse_tolerance("x=near:-0.1,0.1", r));
  EXPECT_FALSE(parse_tolerance("x=near:0.1,-0.1", r));

  // Band: |current - baseline| <= rel*|baseline| + abs. For baseline 10,
  // rel 0.25, abs 0.25 the band is ±2.75 — symmetric, unlike abs/factor.
  const FlatJson base = doc(R"({"fct_s":10})");
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kNear, 0.25, 0.25}};
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":12.7})"), rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":7.3})"), rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":12.8})"), rules).violations, 1);
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":7.2})"), rules).violations, 1);
  // A zero baseline still admits the absolute term (FCTs of 0 never
  // happen, but energies on an unused interface do).
  const FlatJson zero = doc(R"({"fct_s":0})");
  EXPECT_EQ(diff_metrics(zero, doc(R"({"fct_s":0.2})"), rules).violations, 0);
  EXPECT_EQ(diff_metrics(zero, doc(R"({"fct_s":0.3})"), rules).violations, 1);
}

TEST(ReportTest, RollupFlatJsonKeysAndFlows) {
  // Two runs, deliberately given out of sorted order, with '/' in the
  // workload and out-of-order flow completions.
  AnalyzedRun b;
  b.rollup.group = "hybrid_smoke";
  b.rollup.protocol = "mptcp";
  b.rollup.workload = "fleet/closed/c4";
  b.rollup.seed = 2;
  b.rollup.completed = true;
  b.rollup.time_s = 3.5;
  b.rollup.energy_j = 7.25;
  b.rollup.bytes = 8000;
  b.rollup.flows_started = 2;
  b.rollup.flows_completed = 2;
  b.rollup.flows = {{7, 4000.0, 1.5, 3.0}, {3, 4000.0, 2.0, 4.25}};
  AnalyzedRun a;
  a.rollup.group = "hybrid_smoke";
  a.rollup.protocol = "emptcp";
  a.rollup.workload = "fleet/closed/c1";
  a.rollup.seed = 1;
  a.rollup.completed = true;

  const std::string json = rollup_flat_json({b, a});
  const FlatJson flat = doc(json.c_str());

  // Keys carry group-protocol-workload-seed, '/' sanitized to '-', so
  // fleet sizes don't collide and globs can target a workload slice.
  EXPECT_NE(json.find("\"emptcp-rollup-flat-v1\""), std::string::npos);
  const std::string kb = "hybrid_smoke-mptcp-fleet-closed-c4-s2";
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".time_s", -1.0), 3.5);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".bytes", -1.0), 8000.0);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flows_completed", -1.0), 2.0);
  // Flow triples are keyed by flow id and emitted in ascending id order,
  // not completion order — the two fidelities complete flows in different
  // orders, and the gate must compare a flow with itself.
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flow3.fct_s", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flow3.energy_j", -1.0), 4.25);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flow7.fct_s", -1.0), 1.5);
  EXPECT_LT(json.find(kb + ".flow3."), json.find(kb + ".flow7."));
  // Runs are sorted: the emptcp/c1 run serializes first.
  EXPECT_LT(json.find("hybrid_smoke-emptcp-fleet-closed-c1-s1"),
            json.find(kb));
  // The sorted flat documents diff cleanly against themselves.
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kExact, 0.0}};
  EXPECT_EQ(diff_metrics(flat, flat, rules).violations, 0);
}

TEST(DiffTest, DefaultBenchTolerancesFailAnyExtraEventPerPacket) {
  const std::vector<ToleranceRule> rules = default_bench_tolerances();
  const FlatJson base = doc(R"({"packet_path":{"events_per_packet":2.0}})");
  const FlatJson same = doc(R"({"packet_path":{"events_per_packet":2.0}})");
  const FlatJson fewer = doc(R"({"packet_path":{"events_per_packet":1.0}})");
  const FlatJson more = doc(R"({"packet_path":{"events_per_packet":2.5}})");
  EXPECT_EQ(diff_metrics(base, same, rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, fewer, rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, more, rules).violations, 1);
}

TEST(DiffTest, DefaultBenchTolerancesPinTraceLinesPerFlowExactly) {
  const std::vector<ToleranceRule> rules = default_bench_tolerances();
  const FlatJson base = doc(R"({"trace_artifact":{"lines_per_flow":40.5}})");
  const FlatJson same = doc(R"({"trace_artifact":{"lines_per_flow":40.5}})");
  const FlatJson more = doc(R"({"trace_artifact":{"lines_per_flow":120}})");
  const FlatJson fewer = doc(R"({"trace_artifact":{"lines_per_flow":30}})");
  EXPECT_EQ(diff_metrics(base, same, rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, more, rules).violations, 1);
  // A drop is a change of a deterministic count too: re-commit the baseline.
  EXPECT_EQ(diff_metrics(base, fewer, rules).violations, 1);
}

TEST(DiffTest, DefaultBenchTolerancesEndInCatchAll) {
  const std::vector<ToleranceRule> rules = default_bench_tolerances();
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(rules.back().pattern, "*");
  EXPECT_EQ(rules.back().mode, ToleranceRule::Mode::kIgnore);
  // The canonical BENCH_core.json keys all find a rule.
  for (const char* key :
       {"schema", "scheduler.ns_per_op", "end_to_end.allocs_per_op",
        "self_profile.e2e_events_per_sec", "packet_path.wall_seconds"}) {
    bool matched = false;
    for (const auto& r : rules) {
      if (glob_match(r.pattern, key)) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << key;
  }
}

}  // namespace
}  // namespace emptcp::analysis
