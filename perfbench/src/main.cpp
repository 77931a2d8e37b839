// perfbench: the repository benchmark. See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-dir <dir>] [--smoke]
//
// Prints the host, the pinned environment and every metric by name with its
// unit, then, as the last line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness check fails, 2 on bad usage.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/energy_info_base.hpp"
#include "energy/device_profile.hpp"
#include "host.hpp"
#include "runtime/telemetry.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_packet_sharded|fleet_hybrid_bulk|campaign_short_flows> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-dir <dir>] [--smoke]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Pins every environment variable the simulator reads, so nothing from
/// the caller's shell changes what is measured, and returns what was set.
std::vector<std::pair<std::string, std::string>> pin_environment() {
  const std::vector<std::pair<std::string, std::string>> env = {
      {"EMPTCP_JOBS", "4"},          {"EMPTCP_FIDELITY", "packet"},
      {"EMPTCP_TRACE_DIR", ""},      {"EMPTCP_PERF_DIR", ""},
      {"EMPTCP_CSV_DIR", ""},        {"EMPTCP_FLIGHT_DIR", ""},
  };
  for (const auto& [k, v] : env) setenv(k.c_str(), v.c_str(), 1);
  unsetenv("EMPTCP_FASTPATH_DEBUG");
  return env;
}

double eib_build_s() {
  std::vector<double> rounds;
  for (int r = 0; r < 3; ++r) {
    const emptcp::energy::DeviceProfile dev =
        emptcp::energy::DeviceProfile::galaxy_s3();
    const auto t0 = std::chrono::steady_clock::now();
    const auto eib = emptcp::core::EnergyInfoBase::generate(
        dev.model(emptcp::energy::CellTech::kLte));
    rounds.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    if (eib.rows().empty()) return -1.0;
  }
  return median(rounds);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_dir;
  bool have_seed = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else if (a == "--trace-dir") {
      trace_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  if (opt.seconds < 1 || opt.seconds > 600) return usage("--seconds out of range");
  if (opt.work_dir.empty()) return usage("--work-dir is required");

  Outcome (*run)(const Options&, Spans&) = nullptr;
  if (opt.workload == "fleet_packet_sharded") {
    run = run_fleet_packet_sharded;
  } else if (opt.workload == "fleet_hybrid_bulk") {
    run = run_fleet_hybrid_bulk;
  } else if (opt.workload == "campaign_short_flows") {
    run = run_campaign_short_flows;
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  const auto env = pin_environment();
  const HostInfo host = host_info();
  if (!host.optimized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: built without optimisation (%s); "
                 "timings are not comparable\n",
                 host.build_type.c_str());
  }

  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  fs::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  Spans spans(opt.trace);
  Outcome o;
  try {
    o = run(opt, spans);
  } catch (const std::exception& e) {
    fs::remove_all(opt.work_dir, ec);
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  fs::remove_all(opt.work_dir, ec);

  // Calibration: how fast this host runs the scheduler and a link, in
  // this process, right after the workload.
  const double probe_event = probe_ns_per_event();
  const double probe_packet = probe_ns_per_packet();
  o.layer("sim.probe_ns_per_event", probe_event);
  o.layer("net.probe_ns_per_packet", probe_packet);
  if (opt.trace) o.layer("core.eib_build_s", eib_build_s());

  std::printf("host: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"optimized\": %s, "
              "\"sim.probe_ns_per_event\": %s, "
              "\"net.probe_ns_per_packet\": %s}\n",
              host.nproc, json_escape(host.cpu_model).c_str(),
              json_escape(host.compiler).c_str(), host.build_type.c_str(),
              host.optimized ? "true" : "false", num(probe_event).c_str(),
              num(probe_packet).c_str());
  std::string env_line = "env: {";
  for (std::size_t i = 0; i < env.size(); ++i) {
    env_line += (i == 0 ? "\"" : ", \"") + env[i].first + "\": \"" +
                env[i].second + "\"";
  }
  std::printf("%s}\n", env_line.c_str());
  std::printf("workload: %s seed=%llu seconds=%d trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");

  const std::vector<Metric>& shown = opt.trace ? o.per_layer : o.end_to_end;
  for (const Metric& m : shown) {
    if (!std::isfinite(m.value)) o.check(false, m.name + " is not finite");
  }
  for (const Metric& m : o.end_to_end) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (opt.trace) {
    std::printf("per layer:\n");
    for (const Metric& m : o.per_layer) {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& f : o.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  if (opt.trace && !trace_dir.empty()) {
    fs::create_directories(trace_dir, ec);
    const std::string base = trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed);
    const bool ok =
        write_file(base + ".spans.json", spans.to_json()) &&
        write_file(base + ".trace.json",
                   emptcp::runtime::Telemetry::instance().to_chrome_json());
    std::printf("spans: %s.spans.json, Perfetto: %s.trace.json%s\n",
                base.c_str(), base.c_str(), ok ? "" : " (write failed)");
  }

  std::string line = "{\"correct\": ";
  line += o.failures.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    const Metric& m = shown[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return o.failures.empty() ? 0 : 1;
}
