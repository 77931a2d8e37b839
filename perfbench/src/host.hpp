// The host a result was measured on, and in-run calibration probes.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool optimized = false;  ///< compiled with optimisation on
};

HostInfo host_info();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Scheduler calibration: host ns per event of a chain of self-rescheduling
/// events on one Simulation (median of three rounds).
double probe_ns_per_event();

/// Link calibration: host ns per packet-hop of back-to-back packets over a
/// two-link chain (median of three rounds).
double probe_ns_per_packet();

}  // namespace perfbench
