#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace perfbench {

double FlowTally::failed_share() const {
  const std::uint64_t n = attempted();
  return n == 0 ? 0.0
                : static_cast<double>(failed) / static_cast<double>(n);
}

FlowTally tally_flows(const std::vector<emptcp::workload::FlowRecord>& flows,
                      bool run_ended) {
  FlowTally t;
  for (const auto& f : flows) {
    if (f.completed) {
      if (f.delivered == f.bytes) {
        ++t.completed;
      } else {
        ++t.failed;
        ++t.wrong_bytes;
      }
    } else if (run_ended) {
      ++t.failed;
    } else {
      ++t.in_flight;
    }
  }
  return t;
}

double relative_error(double measured, double reference) {
  if (reference == 0.0) {
    return measured == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::fabs(measured - reference) / std::fabs(reference);
}

FidelityError fidelity_error(const WindowOutput& hybrid,
                             const WindowOutput& packet) {
  return {relative_error(hybrid.bytes, packet.bytes),
          relative_error(hybrid.joules_per_bit(), packet.joules_per_bit())};
}

std::vector<std::uint64_t> self_times_ns(const std::vector<SpanTimes>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Child intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const SpanTimes& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanTimes& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t flow_digest(
    const std::vector<emptcp::workload::FlowRecord>& flows) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& f : flows) {
    const std::uint64_t ints[] = {f.id, f.client, f.bytes, f.delivered,
                                  f.completed ? 1u : 0u};
    const double reals[] = {f.start_s, f.end_s, f.energy_j_est};
    mix(ints, sizeof ints);
    mix(reals, sizeof reals);
  }
  return h;
}

}  // namespace perfbench
