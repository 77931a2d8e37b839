#include "analysis/rollup.hpp"

#include <algorithm>
#include <cstdint>

namespace emptcp::analysis {

double TraceData::metric(std::string_view name, double fallback) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return fallback;
}

bool parse_trace_jsonl(std::string_view text, TraceData& out,
                       std::string* err) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    std::string perr;
    std::optional<FlatJson> doc = parse_json_flat(line, &perr);
    if (!doc) {
      if (err != nullptr) {
        *err = "line " + std::to_string(line_no) + ": " + perr;
      }
      return false;
    }
    const JsonScalar* metric = json_find(*doc, "metric");
    if (metric != nullptr && metric->type == JsonScalar::Type::kString) {
      out.metrics.emplace_back(metric->str, json_num(*doc, "value", 0.0));
    } else {
      out.events.push_back(std::move(*doc));
    }
  }
  return true;
}

namespace {

/// Tiny ordered map keyed by interface name; traces have at most a
/// handful of interfaces, so linear scans beat a real map here.
template <typename V>
V& slot_for(std::vector<std::pair<std::string, V>>& items,
            const std::string& key) {
  for (auto& [k, v] : items) {
    if (k == key) return v;
  }
  items.emplace_back(key, V{});
  return items.back().second;
}

}  // namespace

RollupBuilder::RollupBuilder(const RunManifest& manifest) {
  r_.group = manifest.group;
  r_.protocol = manifest.protocol;
  r_.workload = manifest.workload;
  r_.seed = manifest.seed;
}

void RollupBuilder::add_line(const FlatJson& doc) {
  const JsonScalar* metric = json_find(doc, "metric");
  if (metric != nullptr && metric->type == JsonScalar::Type::kString) {
    add_metric(metric->str, json_num(doc, "value", 0.0));
  } else {
    add_event(doc);
  }
}

void RollupBuilder::add_metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
  // Scheduler activity comes from MptcpConnection's counters; per-pick
  // events never reach the retained trace stream.
  static constexpr std::string_view kSchedBytes = "mptcp.sched_bytes.";
  if (name == "mptcp.sched_picks") {
    r_.sched_picks += static_cast<std::uint64_t>(value);
  } else if (name.compare(0, kSchedBytes.size(), kSchedBytes) == 0) {
    slot_for(r_.sched_bytes_by_iface, name.substr(kSchedBytes.size())) +=
        static_cast<std::uint64_t>(value);
  }
}

void RollupBuilder::add_event(const FlatJson& e) {
  ++r_.events;
  const std::string kind = json_str(e, "kind");
  if (kind == "mp_prio") {
    if (json_num(e, "backup", 0.0) != 0.0) {
      ++r_.suspends;
    } else {
      ++r_.resumes;
    }
  } else if (kind == "mode_change") {
    ++r_.mode_changes;
  } else if (kind == "radio_state") {
    ++r_.radio_transitions;
  } else if (kind == "energy_sample") {
    // Per-interface integrator: every EnergyTracker samples on a fixed
    // cadence from t=0, each sample reporting the mean power over the
    // window that *ends* at the sample time. A sharded fleet merges one
    // co-timed sample per cell per window under the same interface name;
    // each integrates over the shared timestep, so the co-timed powers
    // sum instead of the followers collapsing into zero-width gaps.
    const std::string iface = json_str(e, "iface");
    const double t_s = json_num(e, "t_ns", 0.0) * 1e-9;
    SampleStep& prev = slot_for(prev_sample_t_, iface);
    if (t_s > prev.t) {
      prev.step = t_s - prev.t;
      prev.t = t_s;
    }
    const double power_mw = json_num(e, "power_mw", 0.0);
    if (prev.step > 0.0) {
      r_.integrated_energy_j += power_mw * 1e-3 * prev.step;
    }
    power_.add(t_s, power_mw);
  } else if (kind == "flow_start") {
    ++r_.flows_started;
  } else if (kind == "flow_complete") {
    ++r_.flows_completed;
    const double fct = json_num(e, "fct_s", 0.0);
    if (fct > 0.0) r_.flow_fct_s.add(fct);
    const double bytes = json_num(e, "bytes", 0.0);
    const double energy = json_num(e, "energy_j", 0.0);
    if (bytes > 0.0) r_.flow_epb_uj.add(energy * 1e6 / (bytes * 8.0));
    r_.flows.push_back({static_cast<std::uint64_t>(json_num(e, "flow", 0.0)),
                        bytes, fct, energy});
  } else if (kind == "warning") {
    ++r_.warnings;
  }
}

RunRollup RollupBuilder::finish() const {
  RunRollup r = r_;
  const TraceData view{{}, metrics_};
  r.completed = view.metric("run.completed", 0.0) != 0.0;
  r.time_s = view.metric("run.download_time_s", 0.0);
  r.energy_j = view.metric("run.energy_j", 0.0);
  r.wifi_j = view.metric("run.wifi_j", 0.0);
  r.cell_j = view.metric("run.cell_j", 0.0);
  r.bytes = static_cast<std::uint64_t>(view.metric("run.bytes_received", 0.0));
  r.retransmits =
      static_cast<std::uint64_t>(view.metric("tcp.retransmits", 0.0));
  r.rtos = static_cast<std::uint64_t>(view.metric("tcp.rtos", 0.0));
  r.fast_recoveries =
      static_cast<std::uint64_t>(view.metric("tcp.fast_recoveries", 0.0));
  r.reinjections =
      static_cast<std::uint64_t>(view.metric("mptcp.reinjected_chunks", 0.0));
  std::sort(r.sched_bytes_by_iface.begin(), r.sched_bytes_by_iface.end());
  return r;
}

RunRollup rollup_run(const RunManifest& manifest, const TraceData& trace) {
  RollupBuilder b(manifest);
  for (const FlatJson& e : trace.events) b.add_event(e);
  for (const auto& [name, value] : trace.metrics) b.add_metric(name, value);
  return b.finish();
}

double RunRollup::iface_share(std::string_view iface) const {
  std::uint64_t total = 0;
  std::uint64_t mine = 0;
  for (const auto& [k, v] : sched_bytes_by_iface) {
    total += v;
    if (k == iface) mine = v;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(mine) / static_cast<double>(total);
}

}  // namespace emptcp::analysis
