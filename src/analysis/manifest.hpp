// Run manifests: the machine-readable record of *how* a run was produced.
//
// Every traced bench/scenario run writes a `<name>.manifest.json` next to
// its JSONL trace: the grouping key, protocol, seed, workload, scenario
// parameters, build flags and a digest of the serialized trace. A
// manifest plus its trace is a self-describing, integrity-checkable
// artifact — `emptcp-report` consumes directories of them and can tell a
// stale trace from a matching one by digest alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/json.hpp"

namespace emptcp::app {
struct ScenarioConfig;
}  // namespace emptcp::app

namespace emptcp::analysis {

/// v2: the trace stream no longer retains the per-ACK kinds (cwnd, srtt,
/// sched_pick) and scheduler activity travels as mptcp.sched_* counters.
/// A v1 artifact would roll up with no scheduler bytes, so readers reject
/// it and a resumed campaign re-runs its cells.
inline constexpr const char* kManifestSchema = "emptcp-run-manifest-v2";

struct RunManifest {
  std::string group;     ///< aggregation key, e.g. "fig08" or "fig10-n2"
  std::string protocol;  ///< app::to_string(Protocol)
  std::uint64_t seed = 0;
  std::string workload;  ///< free-form, e.g. "download-268435456B"
  std::string trace_file;  ///< JSONL file name, relative to the manifest
  std::uint64_t trace_events = 0;
  std::string trace_digest;  ///< "fnv1a64:<16 hex digits>" of the JSONL text
  /// Scenario/build parameters as (dotted key, JSON literal) pairs, in
  /// emission order. Values are raw JSON scalars ("12.5", "true",
  /// "\"LTE\"") so the writer is trivially deterministic.
  std::vector<std::pair<std::string, std::string>> params;
};

/// FNV-1a 64-bit — tiny, dependency-free, deterministic across platforms;
/// collision resistance is irrelevant here (integrity, not security).
std::uint64_t fnv1a64(std::string_view text);
std::string fnv1a64_hex(std::string_view text);

/// Incremental form for digesting large traces chunk-by-chunk without
/// holding the bytes. Feeding a string in any chunking yields the same
/// value as fnv1a64 over the whole string.
class Fnv1a64Stream {
 public:
  void update(std::string_view chunk);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;  ///< "fnv1a64:<16 hex digits>"

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// The scenario parameters worth recording: path rates/RTTs/losses,
/// dynamics, device, protocol knobs. Keys are dotted ("wifi.down_mbps").
std::vector<std::pair<std::string, std::string>> describe_scenario(
    const app::ScenarioConfig& cfg);

/// Build-flag parameters (trace compiled, NDEBUG, compiler id).
std::vector<std::pair<std::string, std::string>> describe_build();

/// Deterministic JSON rendering (field order fixed, shortest-roundtrip
/// numbers).
std::string manifest_to_json(const RunManifest& m);

/// Reconstructs a manifest from a parsed JSON document. Returns false if
/// the schema marker is missing/unknown.
bool manifest_from_json(const FlatJson& doc, RunManifest& out);

}  // namespace emptcp::analysis
