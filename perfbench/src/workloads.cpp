#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "analysis/json.hpp"
#include "analysis/manifest.hpp"
#include "analysis/report.hpp"
#include "analysis/report_io.hpp"
#include "app/fast_path.hpp"
#include "app/world.hpp"
#include "campaign/runner.hpp"
#include "check/oracle.hpp"
#include "host.hpp"
#include "runtime/replication.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/shard_engine.hpp"
#include "stats/trace_export.hpp"
#include "trace/event.hpp"
#include "workload/sharded_fleet.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace emptcp;
using Clock = std::chrono::steady_clock;

/// Campaign workers and side-by-side hybrid fleets: nproc on the
/// reference host (4 cores). Their threads never wait for each other.
/// Results never depend on it.
constexpr std::size_t kThreads = 4;

/// Shards of the measured packet fleet: half of nproc on the reference
/// host (a shared 4-vCPU VM). There a 4-shard fleet, whose threads meet at
/// a barrier every epoch, timed how many vCPUs the host lent it at once
/// rather than the program (see perfbench/README.md). Results never
/// depend on it.
constexpr std::size_t kShards = 2;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Measured windows for a run of `seconds`: the window count is a pure
/// function of the argument (so the deterministic counts repeat for a
/// given seed), sized so the measured part lasts about `seconds` on the
/// reference host.
std::size_t windows_for(int seconds, double windows_per_second) {
  const auto n = static_cast<std::size_t>(
      std::lround(static_cast<double>(seconds) * windows_per_second));
  return std::max<std::size_t>(n, 4);
}

// ---------------------------------------------------------------------------
// Counters read from a World through its public accessors.

struct Counts {
  std::uint64_t events = 0;
  std::uint64_t hops = 0;  ///< packets delivered across a link
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t radio_activations = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t reinjected = 0;
  std::uint64_t clamped = 0;
  std::uint64_t slab = 0;  ///< high-water mark, never subtracted

  void add(const Counts& o) {
    events += o.events;
    hops += o.hops;
    drops_queue += o.drops_queue;
    drops_loss += o.drops_loss;
    radio_activations += o.radio_activations;
    retransmits += o.retransmits;
    rtos += o.rtos;
    fast_recoveries += o.fast_recoveries;
    reinjected += o.reinjected;
    clamped += o.clamped;
    slab += o.slab;
  }
  [[nodiscard]] Counts since(const Counts& before) const {
    Counts d = *this;
    d.events -= before.events;
    d.hops -= before.hops;
    d.drops_queue -= before.drops_queue;
    d.drops_loss -= before.drops_loss;
    d.radio_activations -= before.radio_activations;
    d.retransmits -= before.retransmits;
    d.rtos -= before.rtos;
    d.fast_recoveries -= before.fast_recoveries;
    d.reinjected -= before.reinjected;
    d.clamped -= before.clamped;
    return d;
  }
};

std::uint64_t counter_value(const sim::Simulation& s, std::string_view name) {
  for (const trace::Counter& c : s.trace().metrics().counters()) {
    if (c.name() == name) return c.value();
  }
  return 0;
}

Counts count_world(app::World& w) {
  Counts c;
  c.events = w.sim.scheduler().events_executed();
  for (const net::Link* l :
       {w.wifi_acc_up.get(), w.wifi_wan_up.get(), w.wifi_wan_down.get(),
        w.wifi_acc_down.get(), w.cell_acc_up.get(), w.cell_wan_up.get(),
        w.cell_wan_down.get(), w.cell_acc_down.get()}) {
    if (l == nullptr) continue;
    c.hops += l->delivered_packets();
    c.drops_queue += l->dropped_queue();
    c.drops_loss += l->dropped_loss();
  }
  c.radio_activations = static_cast<std::uint64_t>(
      w.wifi_radio.activations() + w.cell_radio.activations());
  c.retransmits = counter_value(w.sim, "tcp.retransmits");
  c.rtos = counter_value(w.sim, "tcp.rtos");
  c.fast_recoveries = counter_value(w.sim, "tcp.fast_recoveries");
  c.reinjected = counter_value(w.sim, "mptcp.reinjected_chunks");
  c.clamped = counter_value(w.sim, "energy.clamped_byte_windows");
  c.slab = w.sim.scheduler().slab_size();
  return c;
}

Counts count_fleet(workload::ShardedFleet& f) {
  Counts c;
  for (std::size_t i = 0; i < f.cell_count(); ++i) {
    c.add(count_world(f.cell_world(i)));
  }
  // Each backbone message is one packet crossing a backbone link.
  c.hops += f.engine().cross_messages();
  return c;
}

/// Counts eMPTCP path-usage decisions (mode_change trace events) of one
/// simulation. Attached only in the per-layer run. detach() must run while
/// the simulation is alive; a simulation destroyed first (on an exception
/// path) takes the registration with it.
class ModeChanges final : public trace::EventObserver {
 public:
  ModeChanges() = default;
  ModeChanges(const ModeChanges&) = delete;
  ModeChanges& operator=(const ModeChanges&) = delete;
  void attach(sim::Simulation& s) {
    sim_ = &s;
    s.trace().set_observer(this);
  }
  void detach() {
    if (sim_ != nullptr) sim_->trace().set_observer(nullptr);
    sim_ = nullptr;
  }
  void on_trace_event(const trace::Event& e) override {
    if (e.kind == trace::Kind::kModeChange) ++n;
  }
  std::uint64_t n = 0;

 private:
  sim::Simulation* sim_ = nullptr;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Per-layer metrics derived from a counter delta over the measured part.
void set_counts(Outcome& o, const Counts& d, std::uint64_t flows) {
  const auto ev = static_cast<double>(d.events);
  const auto hops = static_cast<double>(d.hops);
  const auto nf = static_cast<double>(flows);
  o.layer("sim.events", ev);
  o.layer("sim.events_per_packet_hop", ratio(ev, hops));
  o.layer("sim.events_per_flow", ratio(ev, nf));
  o.layer("sim.slab_slots_hwm", static_cast<double>(d.slab));
  o.layer("net.packet_hops", hops);
  o.layer("net.packet_hops_per_flow", ratio(hops, nf));
  o.layer("net.drops_queue", static_cast<double>(d.drops_queue));
  o.layer("net.drops_loss", static_cast<double>(d.drops_loss));
  o.layer("tcp.retransmits", static_cast<double>(d.retransmits));
  o.layer("tcp.rtos", static_cast<double>(d.rtos));
  o.layer("tcp.fast_recoveries", static_cast<double>(d.fast_recoveries));
  o.layer("tcp.retransmit_share",
          ratio(static_cast<double>(d.retransmits), hops));
  o.layer("mptcp.reinjected_chunks", static_cast<double>(d.reinjected));
  o.layer("energy.radio_activations_per_flow",
          ratio(static_cast<double>(d.radio_activations), nf));
  o.layer("energy.clamped_byte_windows", static_cast<double>(d.clamped));
}

/// One measured window: host seconds and what the simulator did in it.
struct Window {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;  ///< flows completed in the window
  Clock::time_point start;
  Clock::time_point end;
};

void tally_into(Outcome& o, const FlowTally& t) {
  o.attempted += t.attempted();
  o.failed += t.failed;
  o.layer("failed_flow_share", t.failed_share());
  o.check(t.failed == 0, std::to_string(t.failed) +
                             " flows ended without delivering exactly the "
                             "bytes they requested");
}

std::string oracle_failure(const check::Oracle& oracle,
                           const std::string& where) {
  std::string msg = where + ": oracle reported " +
                    std::to_string(oracle.violation_count()) +
                    " violations";
  if (!oracle.violations().empty()) {
    msg += " (first: " + oracle.violations().front().invariant + ": " +
           oracle.violations().front().detail + ")";
  }
  return msg;
}

// ---------------------------------------------------------------------------
// The fleet runner shared by both fleet workloads.

std::uint64_t fleet_events(workload::ShardedFleet& f) {
  return f.engine().events_executed();
}
std::uint64_t fleet_events(workload::ClientFleet& f) {
  return f.world().sim.scheduler().events_executed();
}

/// Runs fn(i) for every i < n on `pool` (inline when there is none) and
/// rethrows the first exception a call threw.
void parallel_for(runtime::ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool->submit([&fn, &errors, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool->wait_idle();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Set-ups of the measured pass; the median is reported, so a burst of
/// host noise during one of them (or the first one's first-use costs)
/// does not move it.
constexpr int kSetups = 5;

struct FleetShape {
  double warm_s = 0.0;
  double window_s = 0.0;
  std::size_t windows = 0;
  /// Independent fleets measured side by side, one thread each.
  std::size_t fleets = 1;
};

struct FleetTiming {
  std::vector<double> setups;  ///< per set-up: mean host seconds per fleet
  std::vector<std::vector<Window>> windows;  ///< per fleet
  double start_s = 0.0;   ///< median fleet's start() of the last set-up
  double finish_s = 0.0;  ///< median fleet's finish()
  FlowTally tally;        ///< every fleet's flows at finish()

  /// Host seconds one fleet took for the whole measured window (the mean
  /// over side-by-side fleets).
  [[nodiscard]] double wall_s() const {
    double wall = 0.0;
    for (const auto& fleet : windows) {
      for (const Window& w : fleet) wall += w.wall_s;
    }
    return wall / static_cast<double>(windows.size());
  }
};

/// What a workload adds around the measured windows, once per fleet:
/// `warm` once it is warm and `done` before finish(), on the main thread;
/// `window` after each window, on the thread that runs that fleet.
template <typename Fleet>
struct FleetHooks {
  std::function<void(Fleet&, std::size_t)> warm;
  std::function<void(Fleet&, std::size_t, std::size_t, const Window&)> window;
  std::function<void(Fleet&, std::size_t)> done;
};

/// Seed of fleet `i`: the run's seed for a single fleet, distinct derived
/// seeds for side-by-side fleets.
std::uint64_t fleet_seed(const Options& opt, const FleetShape& shape,
                         std::size_t i) {
  return shape.fleets == 1 ? opt.seed : opt.seed * shape.fleets + i;
}

/// One pass over the fleets: sets them up `setups` times (every repetition
/// must reach the same event count), then measures them window by window
/// and finishes them. A traced pass switches runtime::Telemetry on before
/// its first window. `hooks` may be null.
template <typename Fleet>
FleetTiming run_fleets(const workload::FleetConfig& cfg,
                       const FleetShape& shape, const Options& opt,
                       int setups, bool traced, Spans& spans, Outcome& o,
                       const FleetHooks<Fleet>* hooks) {
  const std::size_t n = shape.fleets;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (n > 1) pool = std::make_unique<runtime::ThreadPool>(n);
  std::vector<std::unique_ptr<Fleet>> fleets(n);
  std::vector<double> start_s(n);
  std::vector<double> warm_s(n);
  std::vector<std::vector<std::uint64_t>> warm_events(n);
  FleetTiming t;
  t.windows.resize(n);

  for (int rep = 0; rep < setups; ++rep) {
    if (rep > 0) {
      Spans::Scope s(spans, "fleet.destroy");
      for (auto& f : fleets) f.reset();
    }
    Spans::Scope s(spans, "setup");
    {
      Spans::Scope st(spans, "fleet.start");
      parallel_for(pool.get(), n, [&](std::size_t i) {
        const auto t0 = Clock::now();
        fleets[i] = std::make_unique<Fleet>(cfg);
        fleets[i]->start(fleet_seed(opt, shape, i));
        start_s[i] = since(t0);
      });
    }
    Spans::Scope sw(spans, "fleet.warmup");
    parallel_for(pool.get(), n, [&](std::size_t i) {
      const auto t0 = Clock::now();
      fleets[i]->run_until(shape.warm_s);
      warm_s[i] = since(t0);
      warm_events[i].push_back(fleet_events(*fleets[i]));
    });
    double setup = 0.0;
    for (std::size_t i = 0; i < n; ++i) setup += start_s[i] + warm_s[i];
    t.setups.push_back(setup / static_cast<double>(n));
  }
  t.start_s = median(start_s);
  for (const auto& ev : warm_events) {
    o.check(std::all_of(ev.begin(), ev.end(),
                        [&](std::uint64_t e) { return e == ev[0]; }),
            "set-up repetitions executed different event counts");
  }
  if (hooks != nullptr && hooks->warm) {
    for (std::size_t i = 0; i < n; ++i) hooks->warm(*fleets[i], i);
  }

  if (traced) runtime::Telemetry::instance().enable(true);
  {
    // Each fleet runs all its windows on its own thread. Side-by-side
    // fleets do unequal work per window, so a barrier after each window
    // would leave the threads that finish early idle.
    Spans::Scope s(spans, "windows");
    parallel_for(pool.get(), n, [&](std::size_t i) {
      Fleet& f = *fleets[i];
      for (std::size_t k = 0; k < shape.windows; ++k) {
        Window w;
        const std::uint64_t e0 = fleet_events(f);
        const std::uint64_t f0 = f.flows_completed();
        w.start = Clock::now();
        f.run_until(shape.warm_s +
                    static_cast<double>(k + 1) * shape.window_s);
        w.end = Clock::now();
        w.wall_s = std::chrono::duration<double>(w.end - w.start).count();
        w.events = fleet_events(f) - e0;
        w.flows = f.flows_completed() - f0;
        if (hooks != nullptr && hooks->window) hooks->window(f, i, k, w);
        t.windows[i].push_back(w);
      }
    });
    // One span per run_until slice, added here on the main thread.
    for (const auto& fleet : t.windows) {
      for (const Window& w : fleet) spans.add("window", w.start, w.end);
    }
  }

  if (hooks != nullptr && hooks->done) {
    for (std::size_t i = 0; i < n; ++i) hooks->done(*fleets[i], i);
  }
  // What follows (finish, replicas) stays untraced.
  if (traced) runtime::Telemetry::instance().enable(false);
  std::vector<workload::FleetMetrics> metrics(n);
  std::vector<double> finish_s(n);
  {
    Spans::Scope s(spans, "fleet.finish");
    parallel_for(pool.get(), n, [&](std::size_t i) {
      const auto t0 = Clock::now();
      metrics[i] = fleets[i]->finish();
      finish_s[i] = since(t0);
    });
  }
  t.finish_s = median(finish_s);
  for (const workload::FleetMetrics& m : metrics) {
    const FlowTally ft = tally_flows(m.flows, false);
    t.tally.completed += ft.completed;
    t.tally.failed += ft.failed;
    t.tally.in_flight += ft.in_flight;
  }
  {
    Spans::Scope s(spans, "fleet.destroy");
    fleets.clear();
  }
  return t;
}

/// End-to-end metrics of the fleets, from the untraced pass. Peak RSS is
/// read here, before any replay or replica runs.
void fleet_e2e(Outcome& o, const FleetTiming& t, std::size_t clients,
               double window_s) {
  std::uint64_t flows = 0;
  double wall = 0.0;
  std::uint64_t events = 0;
  for (const auto& fleet : t.windows) {
    for (const Window& w : fleet) {
      flows += w.flows;
      wall += w.wall_s;
      events += w.events;
    }
  }
  const double sim_s =
      static_cast<double>(t.windows.front().size()) * window_s;
  o.e2e("setup_s", median(t.setups), "s");
  o.e2e("wall_s", t.wall_s(), "s");
  o.e2e("wall_us_per_client_s",
        ratio(t.wall_s() * 1e6, static_cast<double>(clients) * sim_s), "us");
  o.e2e("flows_per_wall_s", ratio(static_cast<double>(flows), wall), "1/s");
  o.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  o.check(flows > 0, "no flow completed in the measured window");
  tally_into(o, t.tally);
  o.layer("sim.wall_ns_per_event",
          ratio(wall * 1e9, static_cast<double>(events)));
  o.layer("workload.start_s", t.start_s);
  o.layer("workload.finish_s", t.finish_s);
}

/// Measures the fleets untraced (the end-to-end metrics) and, in the
/// per-layer run, replays the same seeds over the same windows with
/// runtime::Telemetry and the per-layer observers on. The replay does
/// exactly the same simulated work, so the difference in host time is
/// what tracing costs. `hooks` go with the pass whose per-layer state is
/// reported: the traced replay when there is one.
template <typename Fleet>
FleetTiming measure_fleets(const workload::FleetConfig& cfg,
                           const FleetShape& shape, std::size_t clients,
                           const Options& opt, Spans& spans, Outcome& o,
                           const FleetHooks<Fleet>& hooks) {
  FleetTiming t;
  {
    Spans::Scope s(spans, "pass.untraced");
    t = run_fleets(cfg, shape, opt, kSetups, false, spans, o,
                   opt.trace ? nullptr : &hooks);
  }
  fleet_e2e(o, t, clients, shape.window_s);
  if (!opt.trace) return t;

  FleetTiming traced;
  {
    Spans::Scope s(spans, "pass.traced");
    traced = run_fleets(cfg, shape, opt, 1, true, spans, o, &hooks);
  }
  bool same = traced.tally.completed == t.tally.completed &&
              traced.tally.failed == t.tally.failed &&
              traced.tally.in_flight == t.tally.in_flight;
  for (std::size_t i = 0; i < t.windows.size(); ++i) {
    for (std::size_t k = 0; k < t.windows[i].size(); ++k) {
      same = same && traced.windows[i][k].events == t.windows[i][k].events;
    }
  }
  o.check(same, "traced replay did not repeat the untraced pass's events "
                "and flows");
  o.layer("trace.wall_s", traced.wall_s());
  o.layer("trace.overhead_s", traced.wall_s() - t.wall_s());
  return t;
}

std::uint64_t flows_in(const FleetTiming& t) {
  std::uint64_t n = 0;
  for (const auto& fleet : t.windows) {
    for (const Window& w : fleet) n += w.flows;
  }
  return n;
}

// ---------------------------------------------------------------------------
// fleet_packet_sharded

struct PacketFleetSize {
  std::size_t clients = 2048;
  FleetShape shape{3.0, 1.5, 4};
  std::size_t replica_clients = 512;
  double replica_s = 2.0;
};

PacketFleetSize packet_fleet_size(const Options& opt) {
  PacketFleetSize s;
  if (opt.smoke) {
    s.clients = 256;
    s.shape = {0.5, 0.1, 4};
    s.replica_clients = 256;
    s.replica_s = 0.5;
    return s;
  }
  s.shape.windows = windows_for(opt.seconds, 0.67);
  return s;
}

workload::FleetConfig packet_fleet_config(std::size_t clients,
                                          std::size_t shards) {
  workload::FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 90.0;
  cfg.scenario.cell.down_mbps = 40.0;
  cfg.scenario.fidelity = sim::Fidelity::kPacket;
  cfg.scenario.record_series = false;
  cfg.scenario.trace = false;
  cfg.protocol = app::Protocol::kEmptcp;
  cfg.mode = workload::FleetConfig::Mode::kClosed;
  cfg.clients = clients;
  cfg.flows_per_client = 0;  // endless: the window decides what is measured
  cfg.flow_size.kind = workload::SizeDist::Kind::kLognormal;
  cfg.flow_size.log_mu = std::log(270e3);
  cfg.flow_size.log_sigma = 1.0;
  cfg.flow_size.min_bytes = 20'000;
  cfg.flow_size.max_bytes = 4'000'000;
  cfg.think.kind = workload::ThinkTime::Kind::kExponential;
  cfg.think.mean_s = 1.0;
  cfg.sharding.clients_per_cell = 128;
  cfg.sharding.cross_every = 4;
  cfg.sharding.shards = shards;
  return cfg;
}

/// Reduced replica of the packet fleet: event count and flow digest after
/// `replica_s`, optionally with an oracle on every cell.
struct ReplicaResult {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> oracle_failures;
};

ReplicaResult packet_replica(const PacketFleetSize& size, std::uint64_t seed,
                             std::size_t shards, bool with_oracle) {
  workload::ShardedFleet fleet(
      packet_fleet_config(size.replica_clients, shards));
  // Declared after the fleet so they detach before its worlds die.
  std::vector<std::unique_ptr<check::Oracle>> oracles;
  fleet.start(seed);
  if (with_oracle) {
    for (std::size_t c = 0; c < fleet.cell_count(); ++c) {
      oracles.push_back(std::make_unique<check::Oracle>());
      oracles.back()->attach(fleet.cell_world(c).sim);
    }
  }
  fleet.run_until(size.replica_s);
  ReplicaResult r;
  r.events = fleet.engine().events_executed();
  const workload::FleetMetrics m = fleet.finish();
  r.digest = flow_digest(m.flows);
  for (std::size_t c = 0; c < oracles.size(); ++c) {
    if (!oracles[c]->ok()) {
      r.oracle_failures.push_back(
          oracle_failure(*oracles[c], "packet replica cell " +
                                          std::to_string(c)));
    }
    oracles[c]->detach();
  }
  return r;
}

}  // namespace

Outcome run_fleet_packet_sharded(const Options& opt, Spans& spans) {
  Outcome o;
  const PacketFleetSize size = packet_fleet_size(opt);

  // Per-layer state of the measured fleet.
  std::vector<std::unique_ptr<ModeChanges>> modes;
  std::uint64_t mode_changes = 0;
  Counts before;
  Counts delta;
  sim::ShardEnginePerf perf_before;
  sim::ShardEnginePerf perf_prev;
  sim::ShardEnginePerf perf_after;
  double busy_s = 0.0;
  double wait_s = 0.0;
  FleetHooks<workload::ShardedFleet> hooks;
  hooks.warm = [&](workload::ShardedFleet& f, std::size_t) {
    if (opt.trace) {
      for (std::size_t c = 0; c < f.cell_count(); ++c) {
        modes.push_back(std::make_unique<ModeChanges>());
        modes.back()->attach(f.cell_world(c).sim);
      }
    }
    before = count_fleet(f);
    perf_before = f.engine().perf();
    perf_prev = perf_before;
  };
  // Party busy/wait times are filled in only while Telemetry is on, that
  // is, in the traced replay.
  hooks.window = [&](workload::ShardedFleet& f, std::size_t, std::size_t,
                     const Window&) {
    const sim::ShardEnginePerf p = f.engine().perf();
    for (std::size_t i = 0; i < p.parties.size(); ++i) {
      const bool had = i < perf_prev.parties.size();
      busy_s += p.parties[i].busy_s - (had ? perf_prev.parties[i].busy_s : 0.0);
      wait_s += p.parties[i].wait_s - (had ? perf_prev.parties[i].wait_s : 0.0);
    }
    perf_prev = p;
  };
  hooks.done = [&](workload::ShardedFleet& f, std::size_t) {
    delta = count_fleet(f).since(before);
    perf_after = f.engine().perf();
    for (const auto& mc : modes) {
      mode_changes += mc->n;
      mc->detach();
    }
  };
  const FleetTiming t =
      measure_fleets(packet_fleet_config(size.clients, kShards), size.shape,
                     size.clients, opt, spans, o, hooks);

  set_counts(o, delta, flows_in(t));
  o.layer("core.controller_switches", static_cast<double>(mode_changes));
  const std::uint64_t epochs = perf_after.epochs - perf_before.epochs;
  o.layer("shard.epochs", static_cast<double>(epochs));
  o.layer("shard.events_per_epoch", ratio(static_cast<double>(delta.events),
                                          static_cast<double>(epochs)));
  o.layer("shard.cross_messages",
          static_cast<double>(perf_after.cross_messages -
                              perf_before.cross_messages));
  o.layer("shard.imbalance_pct_p90",
          static_cast<double>(perf_after.imbalance_pct.quantile_upper(0.90)));
  const auto windows = static_cast<double>(size.shape.windows);
  o.layer("shard.busy_s", busy_s / windows);
  o.layer("shard.wait_s", wait_s / windows);
  o.layer("shard.parallel_efficiency", ratio(busy_s, busy_s + wait_s));

  // Untimed replicas: 1 shard with an oracle on every cell must match the
  // same replica on the measured kShards and on kThreads shards, event for
  // event and flow for flow.
  ReplicaResult single;
  {
    Spans::Scope s(spans, "replica.single_oracle");
    single = packet_replica(size, opt.seed, 1, true);
  }
  for (const std::size_t shards : {kShards, kThreads}) {
    ReplicaResult sharded;
    {
      Spans::Scope s(spans, "replica.sharded");
      sharded = packet_replica(size, opt.seed, shards, false);
    }
    const std::string name = std::to_string(shards) + "-shard replica";
    o.check(sharded.events == single.events,
            "1-shard replica executed " + std::to_string(single.events) +
                " events, " + name + " " + std::to_string(sharded.events));
    o.check(sharded.digest == single.digest,
            "1-shard and " + name + "s produced different flow records");
  }
  for (const std::string& f : single.oracle_failures) o.check(false, f);
  return o;
}

// ---------------------------------------------------------------------------
// fleet_hybrid_bulk

namespace {

struct HybridSize {
  std::size_t clients = 32;
  FleetShape shape{120.0, 20.0, 20, 4};
  std::size_t compared_windows = 2;  ///< replayed at packet fidelity
  std::size_t oracle_clients = 8;
  double oracle_s = 30.0;
};

HybridSize hybrid_size(const Options& opt) {
  HybridSize s;
  if (opt.smoke) {
    s.clients = 4;
    s.shape = {10.0, 10.0, 4, 2};
    s.compared_windows = 2;
    s.oracle_clients = 4;
    s.oracle_s = 10.0;
    return s;
  }
  s.shape.windows = windows_for(opt.seconds, 1.5);
  return s;
}

workload::FleetConfig hybrid_fleet_config(std::size_t clients,
                                          sim::Fidelity fidelity) {
  workload::FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 90.0;
  cfg.scenario.cell.down_mbps = 40.0;
  cfg.scenario.fidelity = fidelity;
  cfg.scenario.record_series = false;
  cfg.scenario.trace = false;
  cfg.protocol = app::Protocol::kEmptcp;
  cfg.mode = workload::FleetConfig::Mode::kClosed;
  cfg.clients = clients;
  cfg.flows_per_client = 0;
  cfg.flow_size.kind = workload::SizeDist::Kind::kLognormal;
  cfg.flow_size.log_mu = std::log(32e6);
  cfg.flow_size.log_sigma = 0.25;
  cfg.flow_size.min_bytes = 8'000'000;
  cfg.flow_size.max_bytes = 128'000'000;
  cfg.think.kind = workload::ThinkTime::Kind::kFixed;
  cfg.think.mean_s = 2.0;
  return cfg;
}

/// Client-side wire bytes received and device energy so far.
WindowOutput world_output(app::World& w) {
  return {static_cast<double>(w.wifi_if->rx_bytes() + w.cell_if->rx_bytes()),
          w.tracker.total_j()};
}

WindowOutput output_delta(const WindowOutput& after,
                          const WindowOutput& before) {
  return {after.bytes - before.bytes, after.energy_j - before.energy_j};
}

}  // namespace

Outcome run_fleet_hybrid_bulk(const Options& opt, Spans& spans) {
  Outcome o;
  const HybridSize size = hybrid_size(opt);
  const std::size_t compared =
      std::min(size.compared_windows, size.shape.windows);

  // Per-layer state of each measured fleet.
  const std::size_t n = size.shape.fleets;
  struct PerFleet {
    ModeChanges modes;
    std::uint64_t mode_changes = 0;
    Counts before;
    Counts delta;
    WindowOutput out_before;
    WindowOutput out_compared;
    WindowOutput out_total;
    std::uint64_t fluid_before = 0;
    std::uint64_t entries_before = 0;
    std::uint64_t fluid = 0;
    std::uint64_t entries = 0;
    bool has_fast_path = false;
  };
  std::vector<PerFleet> per(n);
  FleetHooks<workload::ClientFleet> hooks;
  hooks.warm = [&](workload::ClientFleet& f, std::size_t i) {
    app::World& w = f.world();
    PerFleet& p = per[i];
    p.has_fast_path = w.fast_path != nullptr;
    if (!p.has_fast_path) return;
    if (opt.trace) p.modes.attach(w.sim);
    p.before = count_world(w);
    p.out_before = world_output(w);
    p.fluid_before = w.fast_path->fluid_bytes();
    p.entries_before = w.fast_path->fluid_entries();
  };
  hooks.window = [&](workload::ClientFleet& f, std::size_t i, std::size_t k,
                     const Window&) {
    if (k + 1 == compared) {
      per[i].out_compared =
          output_delta(world_output(f.world()), per[i].out_before);
    }
  };
  hooks.done = [&](workload::ClientFleet& f, std::size_t i) {
    app::World& w = f.world();
    PerFleet& p = per[i];
    if (!p.has_fast_path) return;
    p.delta = count_world(w).since(p.before);
    p.out_total = output_delta(world_output(w), p.out_before);
    p.fluid = w.fast_path->fluid_bytes() - p.fluid_before;
    p.entries = w.fast_path->fluid_entries() - p.entries_before;
    p.mode_changes = p.modes.n;
    p.modes.detach();
  };
  const FleetTiming t = measure_fleets(
      hybrid_fleet_config(size.clients, sim::Fidelity::kHybrid), size.shape,
      size.clients, opt, spans, o, hooks);

  Counts delta;
  WindowOutput compared_out;
  double total_bytes = 0.0;
  double compared_wall = 0.0;
  std::uint64_t compared_events = 0;
  std::uint64_t mode_changes = 0;
  double fluid = 0.0;
  double entries = 0.0;
  for (const PerFleet& p : per) {
    o.check(p.has_fast_path, "hybrid fleet has no fast path");
    delta.add(p.delta);
    compared_out.bytes += p.out_compared.bytes;
    compared_out.energy_j += p.out_compared.energy_j;
    total_bytes += p.out_total.bytes;
    mode_changes += p.mode_changes;
    fluid += static_cast<double>(p.fluid);
    entries += static_cast<double>(p.entries);
  }
  // The untraced pass's host time over the compared windows.
  for (const auto& fleet : t.windows) {
    for (std::size_t k = 0; k < compared; ++k) {
      compared_wall += fleet[k].wall_s;
      compared_events += fleet[k].events;
    }
  }
  const std::uint64_t flows = flows_in(t);
  set_counts(o, delta, flows);
  o.layer("core.controller_switches", static_cast<double>(mode_changes));
  o.layer("fastpath.fluid_byte_share", ratio(fluid, total_bytes));
  o.layer("fastpath.entries_per_flow",
          ratio(entries, static_cast<double>(flows)));

  // Untimed packet-fidelity replicas of the same inputs over the compared
  // windows, side by side like the measured fleets: the accuracy the
  // hybrid speed is bought with. What they give is per-layer only, so
  // only the per-layer run pays for them.
  if (opt.trace) {
    Spans::Scope s(spans, "replica.packet");
    std::vector<WindowOutput> out(n);
    std::vector<double> walls(n);
    std::vector<std::uint64_t> events(n);
    runtime::ThreadPool pool(n);
    parallel_for(&pool, n, [&](std::size_t i) {
      workload::ClientFleet packet(
          hybrid_fleet_config(size.clients, sim::Fidelity::kPacket));
      packet.start(fleet_seed(opt, size.shape, i));
      packet.run_until(size.shape.warm_s);
      app::World& pw = packet.world();
      const WindowOutput p0 = world_output(pw);
      const std::uint64_t e0 = pw.sim.scheduler().events_executed();
      const auto t0 = Clock::now();
      packet.run_until(size.shape.warm_s +
                       static_cast<double>(compared) * size.shape.window_s);
      walls[i] = since(t0);
      events[i] = pw.sim.scheduler().events_executed() - e0;
      out[i] = output_delta(world_output(pw), p0);
    });
    WindowOutput packet_out;
    double packet_wall = 0.0;
    std::uint64_t packet_events = 0;
    for (std::size_t i = 0; i < n; ++i) {
      packet_out.bytes += out[i].bytes;
      packet_out.energy_j += out[i].energy_j;
      packet_wall += walls[i];
      packet_events += events[i];
    }
    const FidelityError err = fidelity_error(compared_out, packet_out);
    o.layer("fidelity_err_goodput", err.goodput);
    o.layer("fidelity_err_energy", err.energy);
    o.layer("fastpath.event_reduction",
            ratio(static_cast<double>(packet_events),
                  static_cast<double>(compared_events)));
    o.layer("fastpath.speedup_vs_packet", ratio(packet_wall, compared_wall));
    o.check(std::isfinite(err.goodput) && std::isfinite(err.energy),
            "packet replica delivered no bytes in the compared window");
  }

  // Untimed reduced replica with the invariant oracle attached.
  {
    Spans::Scope s(spans, "replica.oracle");
    workload::ClientFleet small(
        hybrid_fleet_config(size.oracle_clients, sim::Fidelity::kHybrid));
    check::Oracle oracle;
    small.start(opt.seed);
    oracle.attach(small.world().sim);
    small.run_until(size.oracle_s);
    const workload::FleetMetrics sm = small.finish();
    o.check(oracle.ok(), oracle_failure(oracle, "hybrid replica"));
    const FlowTally ft = tally_flows(sm.flows, false);
    o.check(ft.failed == 0, "hybrid oracle replica: " +
                                std::to_string(ft.failed) + " flows failed");
    oracle.detach();
  }
  return o;
}

// ---------------------------------------------------------------------------
// campaign_short_flows

namespace {

struct CampaignSize {
  std::vector<std::size_t> fleet_sizes = {16, 64};
  std::size_t seeds = 3;
  std::size_t flows_per_client = 16;
  double rate_per_s = 8.0;
};

CampaignSize campaign_size(const Options& opt) {
  CampaignSize s;
  if (opt.smoke) {
    s.fleet_sizes = {4, 8};
    s.seeds = 1;
    s.flows_per_client = 2;
    return s;
  }
  s.seeds = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(opt.seconds * 0.3)));
  return s;
}

campaign::CampaignSpec campaign_spec(const CampaignSize& size,
                                     std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.name = "perfbench";
  spec.protocols = {app::Protocol::kEmptcp, app::Protocol::kMptcp,
                    app::Protocol::kTcpWifi};
  spec.fleet_sizes = size.fleet_sizes;
  for (std::size_t i = 0; i < size.seeds; ++i) {
    spec.seeds.push_back(seed * 1000 + i);
  }
  workload::FleetConfig& w = spec.workload;
  // §4.1 lab rates; fidelity set here, never from EMPTCP_FIDELITY.
  w.scenario.wifi.down_mbps = 12.0;
  w.scenario.cell.down_mbps = 9.0;
  w.scenario.fidelity = sim::Fidelity::kPacket;
  w.scenario.record_series = false;
  w.scenario.trace = true;
  w.mode = workload::FleetConfig::Mode::kOpen;
  w.flows_per_client = size.flows_per_client;
  w.arrival.kind = workload::ArrivalProcess::Kind::kPoisson;
  w.arrival.rate_per_s = size.rate_per_s;
  w.flow_size.kind = workload::SizeDist::Kind::kPareto;
  w.flow_size.alpha = 1.2;
  w.flow_size.min_bytes = 10'000;
  w.flow_size.max_bytes = 2'000'000;
  return spec;
}

/// One timed pass: run the campaign, load its artifacts, render the report.
struct CampaignPass {
  double run_s = 0.0;
  double load_s = 0.0;
  double render_s = 0.0;
  std::vector<analysis::AnalyzedRun> runs;
  std::size_t report_bytes = 0;
  double artifact_mb = 0.0;

  [[nodiscard]] double wall_s() const { return run_s + load_s + render_s; }
};

CampaignPass campaign_pass(const campaign::CampaignSpec& spec,
                           const std::string& dir, Spans& spans) {
  CampaignPass p;
  fs::remove_all(dir);
  campaign::CampaignRunner runner(spec, dir);
  auto t0 = Clock::now();
  {
    Spans::Scope s(spans, "campaign.run");
    runner.run(kThreads);
  }
  p.run_s = since(t0);
  t0 = Clock::now();
  {
    Spans::Scope s(spans, "analysis.load");
    std::string err;
    if (!analysis::load_analyzed_runs({dir}, p.runs, err)) {
      throw std::runtime_error("analysis load failed: " + err);
    }
  }
  p.load_s = since(t0);
  std::vector<analysis::AnalyzedRun> copy = p.runs;
  t0 = Clock::now();
  {
    Spans::Scope s(spans, "analysis.render");
    p.report_bytes = analysis::render_report(std::move(copy)).size();
  }
  p.render_s = since(t0);
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  p.artifact_mb = static_cast<double>(bytes) / 1e6;
  return p;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A campaign cell re-run directly, outside the runner.
struct CellReplica {
  FlowTally tally;
  Counts counts;
  std::uint64_t mode_changes = 0;
  std::string digest;
};

CellReplica replicate_cell(const campaign::CampaignSpec& spec,
                           const campaign::CampaignCell& cell) {
  // The same configuration CampaignRunner::run_cell builds.
  workload::FleetConfig cfg = spec.workload;
  cfg.protocol = cell.protocol;
  cfg.clients = cell.fleet_size;
  cfg.scenario.trace = true;
  workload::ClientFleet fleet(cfg);
  const workload::FleetMetrics m = fleet.run(cell.derived_seed);
  CellReplica r;
  r.tally = tally_flows(m.flows, true);
  r.counts = count_world(fleet.world());
  for (const trace::Event& e : m.run.trace_events) {
    if (e.kind == trace::Kind::kModeChange) ++r.mode_changes;
  }
  r.digest = analysis::fnv1a64_hex(
      stats::trace_to_jsonl(m.run.trace_events, m.run.trace_metrics));
  return r;
}

}  // namespace

Outcome run_campaign_short_flows(const Options& opt, Spans& spans) {
  Outcome o;
  const CampaignSize size = campaign_size(opt);

  // Set-up, kSetups times with the median reported: the spec and its
  // grid, then a warm-up campaign of one seed through run, load and render
  // (first-use costs: pools, allocator, page cache).
  std::vector<double> setups;
  campaign::CampaignSpec spec;
  std::vector<campaign::CampaignCell> cells;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    Spans::Scope s(spans, "setup");
    spec = campaign_spec(size, opt.seed);
    cells = campaign::CampaignRunner(spec, opt.work_dir).cells();
    campaign::CampaignSpec warm = spec;
    warm.seeds = {opt.seed * 1000 + 999};
    campaign_pass(warm, opt.work_dir + "/warmup", spans);
    setups.push_back(since(t0));
  }

  // The timed part: five identical passes with medians reported, so a
  // burst of host noise moves one pass and not the result.
  std::string artifacts = opt.work_dir + "/pass";
  std::vector<CampaignPass> passes;
  for (int rep = 0; rep < 5; ++rep) {
    passes.push_back(campaign_pass(spec, artifacts, spans));
  }
  const double peak_rss = peak_rss_mb();
  std::vector<double> walls;
  std::vector<double> runs;
  for (const CampaignPass& p : passes) {
    walls.push_back(p.wall_s());
    runs.push_back(p.run_s);
  }
  const double wall = median(walls);
  const double run_s = median(runs);
  std::sort(passes.begin(), passes.end(),
            [](const CampaignPass& a, const CampaignPass& b) {
              return a.wall_s() < b.wall_s();
            });
  CampaignPass pass = std::move(passes[passes.size() / 2]);
  if (opt.trace) {
    runtime::Telemetry::instance().enable(true);
    artifacts = opt.work_dir + "/traced";
    pass = campaign_pass(spec, artifacts, spans);
    o.layer("trace.wall_s", pass.wall_s());
    o.layer("trace.overhead_s", pass.wall_s() - wall);
  }

  // Artifacts, by cell label.
  std::map<std::string, const analysis::AnalyzedRun*> by_label;
  for (const analysis::AnalyzedRun& r : pass.runs) {
    const std::string name = fs::path(r.source).filename().string();
    const std::string suffix = ".manifest.json";
    if (name.size() > suffix.size()) {
      by_label[name.substr(0, name.size() - suffix.size())] = &r;
    }
  }
  o.check(by_label.size() == cells.size(),
          "analysis loaded " + std::to_string(by_label.size()) + " runs of " +
              std::to_string(cells.size()) + " cells");

  // Untimed direct replicas of every cell, on kThreads pool workers.
  std::vector<CellReplica> replicas;
  {
    Spans::Scope s(spans, "replica.cells");
    auto matrix = runtime::run_replications(
        cells, {0},
        [&spec](const campaign::CampaignCell& cell, std::uint64_t) {
          return replicate_cell(spec, cell);
        },
        kThreads);
    for (auto& row : matrix) replicas.push_back(std::move(row.front()));
  }

  FlowTally tally;
  Counts counts;
  std::uint64_t mode_changes = 0;
  std::uint64_t trace_events = 0;
  double client_s = 0.0;
  // Energy and bytes per (protocol, fleet size), summed over seeds.
  std::map<std::pair<app::Protocol, std::size_t>, std::pair<double, double>>
      energy;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const campaign::CampaignCell& cell = cells[i];
    const CellReplica& rep = replicas[i];
    tally.completed += rep.tally.completed;
    tally.failed += rep.tally.failed;
    counts.add(rep.counts);
    mode_changes += rep.mode_changes;
    const auto it = by_label.find(cell.label);
    if (it == by_label.end()) {
      o.check(false, "no artifacts for cell " + cell.label);
      continue;
    }
    const analysis::AnalyzedRun& run = *it->second;
    const analysis::RunRollup& r = run.rollup;
    o.check(run.digest_ok, cell.label + ": trace digest mismatch");
    const std::string manifest =
        read_text(artifacts + "/" + cell.label + ".manifest.json");
    const auto doc = analysis::parse_json_flat(manifest);
    o.check(doc && analysis::json_str(*doc, "trace_digest", "") == rep.digest,
            cell.label + ": direct re-run does not reproduce the artifact");
    // Unfinished flows are reported by the failed-flow check below.
    o.check(r.flows_completed ==
                    rep.tally.completed + rep.tally.wrong_bytes &&
                r.flows_started == rep.tally.attempted(),
            cell.label + ": artifact flow counts differ from the re-run");
    trace_events += r.events;
    client_s += static_cast<double>(cell.fleet_size) * r.time_s;
    auto& e = energy[{cell.protocol, cell.fleet_size}];
    e.first += r.energy_j;
    e.second += static_cast<double>(r.bytes);
  }
  o.attempted = tally.attempted();
  o.failed = tally.failed;
  o.layer("failed_flow_share", tally.failed_share());
  o.check(tally.failed == 0,
          std::to_string(tally.failed) +
              " campaign flows failed or did not complete");

  // The paper's headline: eMPTCP spends no more energy per bit than MPTCP.
  for (const std::size_t fleet : size.fleet_sizes) {
    const auto& em = energy[{app::Protocol::kEmptcp, fleet}];
    const auto& mp = energy[{app::Protocol::kMptcp, fleet}];
    const double em_jpb = ratio(em.first, em.second * 8.0);
    const double mp_jpb = ratio(mp.first, mp.second * 8.0);
    o.check(em.second > 0.0 && mp.second > 0.0 && em_jpb <= mp_jpb,
            "fleet " + std::to_string(fleet) + ": eMPTCP energy per bit " +
                std::to_string(em_jpb * 1e6) + " uJ exceeds MPTCP's " +
                std::to_string(mp_jpb * 1e6) + " uJ");
  }

  o.e2e("setup_s", median(setups), "s");
  o.e2e("wall_s", wall, "s");
  o.e2e("wall_us_per_client_s", ratio(run_s * 1e6, client_s), "us");
  o.e2e("flows_per_wall_s",
        ratio(static_cast<double>(tally.completed), wall), "1/s");
  o.e2e("peak_rss_mb", peak_rss, "MB");

  set_counts(o, counts, tally.attempted());
  // Worker-thread seconds of the campaign run per executed event.
  o.layer("sim.wall_ns_per_event",
          ratio(pass.run_s * kThreads * 1e9, static_cast<double>(counts.events)));
  o.layer("core.controller_switches", static_cast<double>(mode_changes));
  o.layer("campaign.run_s", pass.run_s);
  o.layer("campaign.artifact_mb", pass.artifact_mb);
  o.layer("campaign.events", static_cast<double>(trace_events));
  o.layer("analysis.load_s", pass.load_s);
  o.layer("analysis.render_s", pass.render_s);
  o.layer("analysis.mb_per_s", ratio(pass.artifact_mb, pass.load_s));
  o.check(pass.report_bytes > 0, "rendered report is empty");
  return o;
}

// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sim.events", "count"},
      {"sim.events_per_packet_hop", "ratio"},
      {"sim.events_per_flow", "ratio"},
      {"sim.wall_ns_per_event", "ns"},
      {"sim.slab_slots_hwm", "count"},
      {"sim.probe_ns_per_event", "ns"},
      {"shard.epochs", "count"},
      {"shard.events_per_epoch", "ratio"},
      {"shard.cross_messages", "count"},
      {"shard.imbalance_pct_p90", "%"},
      {"shard.busy_s", "s"},
      {"shard.wait_s", "s"},
      {"shard.parallel_efficiency", "ratio"},
      {"net.packet_hops", "count"},
      {"net.packet_hops_per_flow", "ratio"},
      {"net.drops_queue", "count"},
      {"net.drops_loss", "count"},
      {"net.probe_ns_per_packet", "ns"},
      {"tcp.retransmits", "count"},
      {"tcp.rtos", "count"},
      {"tcp.fast_recoveries", "count"},
      {"tcp.retransmit_share", "ratio"},
      {"mptcp.reinjected_chunks", "count"},
      {"core.controller_switches", "count"},
      {"core.eib_build_s", "s"},
      {"energy.radio_activations_per_flow", "ratio"},
      {"energy.clamped_byte_windows", "count"},
      {"fastpath.fluid_byte_share", "ratio"},
      {"fastpath.entries_per_flow", "ratio"},
      {"fastpath.event_reduction", "ratio"},
      {"fastpath.speedup_vs_packet", "ratio"},
      {"fidelity_err_goodput", "ratio"},
      {"fidelity_err_energy", "ratio"},
      {"failed_flow_share", "ratio"},
      {"workload.start_s", "s"},
      {"workload.finish_s", "s"},
      {"campaign.run_s", "s"},
      {"campaign.artifact_mb", "MB"},
      {"campaign.events", "count"},
      {"analysis.load_s", "s"},
      {"analysis.render_s", "s"},
      {"analysis.mb_per_s", "MB/s"},
      {"trace.wall_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return kNames;
}

Outcome::Outcome() {
  for (const auto& [name, unit] : per_layer_names()) {
    per_layer.push_back({name, 0.0, unit});
  }
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Outcome::e2e(const std::string& name, double value,
                  const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Outcome::layer(const std::string& name, double value) {
  for (Metric& m : per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

}  // namespace perfbench
