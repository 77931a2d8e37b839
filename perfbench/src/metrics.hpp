// Metric arithmetic of the benchmark: flow tallies, fidelity errors,
// span self time and order statistics. Pure functions over plain data, so
// the unit tests pin every formula without running a simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/fleet.hpp"

namespace perfbench {

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// How a run's flows ended. A completed flow that delivered a different
/// byte count than it requested counts as failed. A flow that has not
/// completed is failed only when the run has ended (a campaign cell);
/// at the end of a fleet's measured window it is still in flight and
/// counts in neither part.
struct FlowTally {
  std::uint64_t completed = 0;  ///< completed with exactly the bytes asked
  std::uint64_t failed = 0;
  std::uint64_t wrong_bytes = 0;  ///< completed, wrong byte count (failed)
  std::uint64_t in_flight = 0;

  [[nodiscard]] std::uint64_t attempted() const { return completed + failed; }
  /// failed / (completed + failed); 0 when nothing ended.
  [[nodiscard]] double failed_share() const;
};

FlowTally tally_flows(const std::vector<emptcp::workload::FlowRecord>& flows,
                      bool run_ended);

/// |measured - reference| / reference; 0 when both are 0, +inf when only
/// the reference is.
double relative_error(double measured, double reference);

/// What one fidelity of the hybrid workload produced over the compared
/// window: payload bytes the clients received and device energy spent.
struct WindowOutput {
  double bytes = 0.0;
  double energy_j = 0.0;

  [[nodiscard]] double joules_per_bit() const {
    return bytes > 0.0 ? energy_j / (bytes * 8.0) : 0.0;
  }
};

struct FidelityError {
  double goodput = 0.0;  ///< relative error of delivered bytes
  double energy = 0.0;   ///< relative error of energy per delivered bit
};

FidelityError fidelity_error(const WindowOutput& hybrid,
                             const WindowOutput& packet);

/// A span as the benchmark records it: [start_ns, end_ns) on one clock,
/// with the id of the span that encloses it (0 = root).
struct SpanTimes {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its direct children (overlapping children,
/// such as work on several threads, are counted once; child time outside
/// the parent's interval is ignored).
std::vector<std::uint64_t> self_times_ns(const std::vector<SpanTimes>& spans);

double median(std::vector<double> v);

/// FNV-1a digest of every flow record field, in record order: the
/// identity of a fleet's outcome.
std::uint64_t flow_digest(
    const std::vector<emptcp::workload::FlowRecord>& flows);

}  // namespace perfbench
