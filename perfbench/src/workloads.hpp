// The benchmark's three workloads. Each builds its inputs from the seed,
// times calls into the simulator's public API from outside, reads the
// simulator's own counters through public accessors and checks that the
// simulated outputs are correct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;    ///< sizes the measured part (see README.md)
  bool trace = false;  ///< per-layer run: spans + runtime::Telemetry
  bool smoke = false;  ///< tiny sizes, for the benchmark's own tests
  std::string work_dir;  ///< per-run scratch directory (campaign output)
};

struct Outcome {
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t attempted = 0;        ///< flows that ended
  std::uint64_t failed = 0;           ///< of which failed
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< every per-layer name, 0 where absent

  Outcome();
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Sets a per-layer metric; the name must be one of per_layer_names().
  void layer(const std::string& name, double value);
};

/// Every per-layer metric with its unit, in print order.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

Outcome run_fleet_packet_sharded(const Options& opt, Spans& spans);
Outcome run_fleet_hybrid_bulk(const Options& opt, Spans& spans);
Outcome run_campaign_short_flows(const Options& opt, Spans& spans);

}  // namespace perfbench
