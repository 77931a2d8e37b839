#include "host.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = cpu_model();
#ifdef __VERSION__
  h.compiler = __VERSION__;
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  h.optimized = true;
#endif
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double probe_ns_per_event() {
  constexpr std::uint64_t kEvents = 1'000'000;
  std::vector<double> rounds;
  for (int r = 0; r < 3; ++r) {
    emptcp::sim::Simulation sim(1);
    sim.trace().flight_enable(false);
    std::uint64_t left = kEvents;
    // 64 concurrent chains, so the heap holds more than one entry.
    struct Chain {
      emptcp::sim::Simulation* sim;
      std::uint64_t* left;
      emptcp::sim::Duration gap;
      void fire() const {
        if (*left == 0) return;
        --*left;
        const Chain self = *this;
        sim->in(gap, [self] { self.fire(); });
      }
    };
    for (int c = 0; c < 64; ++c) {
      Chain{&sim, &left, emptcp::sim::microseconds(10 + c)}.fire();
    }
    const auto t0 = Clock::now();
    const std::size_t ran = sim.run();
    rounds.push_back(ns_since(t0) / static_cast<double>(ran));
  }
  return median(rounds);
}

double probe_ns_per_packet() {
  constexpr std::uint64_t kPackets = 200'000;
  constexpr int kBurst = 8;
  std::vector<double> rounds;
  for (int r = 0; r < 3; ++r) {
    emptcp::sim::Simulation sim(1);
    sim.trace().flight_enable(false);
    emptcp::net::Link::Config cfg;
    cfg.rate_mbps = 10'000.0;
    cfg.prop_delay = emptcp::sim::microseconds(50);
    cfg.queue_limit_bytes = 1 << 20;
    emptcp::net::Link first(sim, cfg);
    emptcp::net::Link second(sim, cfg);
    first.chain_to(second);
    std::uint64_t received = 0;
    second.set_receiver([&received](const emptcp::net::Packet&) { ++received; });

    emptcp::net::Packet pkt;
    pkt.src = 1;
    pkt.dst = 2;
    pkt.payload = 1448;
    // One burst per burst's serialisation time keeps the queue short.
    const auto gap = emptcp::sim::nanoseconds(static_cast<std::int64_t>(
        kBurst * pkt.wire_bytes() * 8.0 / (cfg.rate_mbps * 1e-3)));
    std::uint64_t sent = 0;
    std::function<void()> burst = [&] {
      for (int i = 0; i < kBurst && sent < kPackets; ++i, ++sent) {
        first.send(pkt);
      }
      if (sent < kPackets) sim.in(gap, [&burst] { burst(); });
    };
    const auto t0 = Clock::now();
    burst();
    sim.run();
    rounds.push_back(ns_since(t0) / static_cast<double>(2 * received));
  }
  return median(rounds);
}

}  // namespace perfbench
