#include "workload/sharded_fleet.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "analysis/manifest.hpp"
#include "analysis/perf_report.hpp"
#include "app/bulk_download.hpp"
#include "app/client_handle.hpp"
#include "app/fast_path.hpp"
#include "app/world.hpp"
#include "core/energy_info_base.hpp"
#include "net/packet_pool.hpp"
#include "net/shard_link.hpp"
#include "trace/trace.hpp"

namespace emptcp::workload {

namespace {

std::uint64_t nonzero(std::uint64_t h) { return h == 0 ? 1 : h; }

/// Per-cell simulation seed: a pure function of (fleet seed, cell index).
std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell) {
  return nonzero(analysis::fnv1a64("cell|" + std::to_string(seed) + "|" +
                                   std::to_string(cell)));
}

/// Adds a cell's tracker series into the fleet's, sample by sample: every
/// cell's tracker samples on the same period from t = 0.
template <typename Point>
void add_series(stats::Series& sum, const std::vector<Point>& pts,
                double Point::*value) {
  if (sum.size() < pts.size()) sum.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sum[i].t = pts[i].t_s;
    sum[i].v += pts[i].*value;
  }
}

}  // namespace

struct ShardedFleet::Cell {
  std::size_t index = 0;
  std::size_t clients = 0;
  std::uint32_t client_base = 0;
  std::size_t place = 0;

  std::unique_ptr<app::World> world;
  std::unique_ptr<app::FileServer> server;
  // Backbone endpoints: `in_up` receives the previous cell's requests,
  // `in_down` the next cell's responses; `up`/`down` are this cell's
  // outbound halves (created in wire_backbone, absent when C == 1).
  std::unique_ptr<net::CrossShardLink::Port> in_up, in_down;
  std::unique_ptr<net::CrossShardLink> up, down;

  std::vector<std::size_t> flows_done_per_client;
  std::vector<FlowRecord> records;  ///< local flows; id is the global g
  std::vector<std::unique_ptr<app::ClientConnHandle>> handles;
  std::vector<double> energy_at_start;
  std::vector<std::uint64_t> rx_at_start;
  std::uint64_t launched = 0;  ///< per-cell launch counter k (g = i + k*C)
  std::uint64_t completed = 0;
  ArrivalProcess arrival;  ///< cell-share-scaled copy of cfg.arrival
  std::size_t arrivals_issued = 0;
  double last_arrival_s = 0.0;
  bool arrivals_done = false;
};

ShardedFleet::ShardedFleet(FleetConfig cfg) : cfg_(std::move(cfg)) {}

ShardedFleet::~ShardedFleet() = default;

app::World& ShardedFleet::cell_world(std::size_t cell) {
  return *cells_.at(cell)->world;
}

std::uint64_t ShardedFleet::flows_started() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->launched;
  return n;
}

std::uint64_t ShardedFleet::flows_completed() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->completed;
  return n;
}

std::uint64_t ShardedFleet::flow_bytes(std::uint64_t g) const {
  // Fresh Rng per flow: any cell can evaluate any flow's size without
  // consuming another cell's random stream.
  sim::Rng rng(nonzero(analysis::fnv1a64(
      "flow|" + std::to_string(seed_) + "|" + std::to_string(g))));
  return cfg_.flow_size.sample(rng, static_cast<std::size_t>(g));
}

void ShardedFleet::build_cell(std::size_t index, std::size_t clients,
                              std::uint32_t client_base) {
  auto cell = std::make_unique<Cell>();
  Cell& c = *cell;
  c.index = index;
  c.clients = clients;
  c.client_base = client_base;
  c.world = std::make_unique<app::World>(cfg_.scenario, cell_seed(seed_, index),
                                         app::cell_addressing(index));
  app::World& w = *c.world;
  if (eib_) w.share_eib(*eib_);
  c.place = engine_->add_place(w.sim, "cell" + std::to_string(index));

  app::FileServer::Config scfg;
  scfg.port = app::kPort;
  scfg.request_bytes = cfg_.scenario.request_bytes;
  scfg.close_after_response = true;
  // Connections carry app_tag = g + 1 and sizes are a pure function of g,
  // so this server answers local and cross-cell requests identically. A
  // local flow (g = index + k*C) already holds its size in record k; only
  // a cross-cell request evaluates flow_bytes.
  scfg.resolver = [this, &c](std::size_t conn,
                             std::size_t req) -> std::uint64_t {
    if (req != 0) return 0;
    const std::size_t C = cells_.size();
    if (conn % C == c.index && conn / C < c.records.size()) {
      return c.records[conn / C].bytes;
    }
    return flow_bytes(conn);
  };
  scfg.mptcp = app::make_mptcp_cfg(cfg_.scenario, true);
  c.server = std::make_unique<app::FileServer>(w.sim, w.server,
                                               std::move(scfg));
  cells_.push_back(std::move(cell));
}

void ShardedFleet::wire_backbone() {
  const std::size_t C = cells_.size();
  if (C < 2) return;

  // Ports first (a CrossShardLink needs its destination port at
  // construction), then the links in fixed cell order so engine edge ids —
  // part of the deterministic drain order — are a pure function of C.
  for (auto& cp : cells_) {
    cp->in_up = std::make_unique<net::CrossShardLink::Port>();
    cp->in_down = std::make_unique<net::CrossShardLink::Port>();
  }
  for (std::size_t i = 0; i < C; ++i) {
    Cell& c = *cells_[i];
    const std::size_t next = (i + 1) % C;
    const std::size_t prev = (i + C - 1) % C;

    net::Link::Config up_cfg;
    up_cfg.rate_mbps = cfg_.sharding.backbone_mbps;
    up_cfg.prop_delay = cfg_.sharding.backbone_delay;
    up_cfg.queue_limit_bytes = 1 << 20;
    up_cfg.name = "backbone-up-" + std::to_string(i);
    c.up = std::make_unique<net::CrossShardLink>(
        c.world->sim, *engine_, c.place, cells_[next]->place,
        *cells_[next]->in_up, up_cfg);

    net::Link::Config down_cfg = up_cfg;
    down_cfg.name = "backbone-down-" + std::to_string(i);
    c.down = std::make_unique<net::CrossShardLink>(
        c.world->sim, *engine_, c.place, cells_[prev]->place,
        *cells_[prev]->in_down, down_cfg);
  }

  for (std::size_t i = 0; i < C; ++i) {
    Cell& c = *cells_[i];
    app::World& w = *c.world;
    const std::size_t prev = (i + C - 1) % C;

    // Client-side egress: WAN-up arrivals addressed to a remote server go
    // on the backbone instead of the local server interface.
    auto upstream = [this, &c, &w](const net::Packet& p) {
      if (p.dst == w.addrs.server) {
        w.srv_if->deliver(p);
      } else {
        c.up->link().send(p);
      }
    };
    w.wifi_wan_up->set_receiver(upstream);
    w.cell_wan_up->set_receiver(upstream);

    // Server-side egress: responses to the previous cell's clients ride
    // the down backbone (the route table keys on the destination address).
    const app::Addressing prev_addrs = app::cell_addressing(prev);
    w.srv_if->add_route(prev_addrs.wifi, c.down->link());
    w.srv_if->add_route(prev_addrs.cell, c.down->link());

    // Backbone ingress. Requests target this cell's server; responses
    // re-enter through the governed access links, so remote traffic
    // contends for the same WiFi/LTE bottlenecks local traffic does.
    c.in_up->set_receiver(
        [&w](const net::Packet& p) { w.srv_if->deliver(p); });
    c.in_down->set_receiver([&w](const net::Packet& p) {
      if (p.dst == w.addrs.wifi) {
        w.wifi_acc_down->send(p);
      } else if (p.dst == w.addrs.cell) {
        w.cell_acc_down->send(p);
      }
    });
  }
}

void ShardedFleet::start(std::uint64_t seed) {
  seed_ = seed;
  engine_ = std::make_unique<sim::ShardEngine>(cfg_.sharding.shards);

  // One EIB for every cell: generation is the expensive part, lookups are
  // const, and sharing keeps 100k-client memory bounded.
  if (cfg_.protocol == app::Protocol::kEmptcp) {
    eib_ = std::make_unique<core::EnergyInfoBase>(
        core::EnergyInfoBase::generate(
            cfg_.scenario.device.model(cfg_.scenario.cell_tech)));
  }

  const std::size_t C = cfg_.cell_count();
  const std::size_t per = cfg_.sharding.clients_per_cell == 0
                              ? cfg_.clients
                              : cfg_.sharding.clients_per_cell;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < C; ++i) {
    const std::size_t n = std::min(per, cfg_.clients - assigned);
    build_cell(i, n, static_cast<std::uint32_t>(assigned));
    assigned += n;
  }
  wire_backbone();

  for (auto& cp : cells_) {
    Cell& c = *cp;
    c.world->tracker.start();
    c.world->start_dynamics();
    if (cfg_.mode == FleetConfig::Mode::kClosed) {
      c.flows_done_per_client.assign(c.clients, 0);
      for (std::size_t k = 0; k < c.clients; ++k) {
        launch_flow(c, static_cast<std::uint32_t>(k));
      }
    } else {
      // Per-cell arrival process at the cell's population share of the
      // global rate: for Poisson, superposition of the cell streams
      // reproduces the full-rate process in distribution, and any fixed
      // decomposition is shard-count invariant (cells are a function of
      // fleet size only). kTrace schedules are instead consumed round-robin
      // by global arrival index cell + n*C (see schedule_next_arrival).
      c.arrival = cfg_.arrival;
      if (cfg_.clients > 0) {
        c.arrival.rate_per_s = cfg_.arrival.rate_per_s *
                               static_cast<double>(c.clients) /
                               static_cast<double>(cfg_.clients);
      }
      c.last_arrival_s = 0.0;
      schedule_next_arrival(c);
    }
  }
}

void ShardedFleet::schedule_next_arrival(Cell& c) {
  const std::size_t budget =
      cfg_.flows_per_client == 0 ? 0 : c.clients * cfg_.flows_per_client;
  if (budget != 0 && c.launched >= budget) {
    c.arrivals_done = true;
    return;
  }
  app::World& w = *c.world;
  const std::size_t global_index =
      c.index + c.arrivals_issued * cells_.size();
  const double next =
      c.arrival.next_start_s(w.sim.rng(), c.last_arrival_s, global_index);
  if (next < 0.0) {  // trace schedule exhausted
    c.arrivals_done = true;
    return;
  }
  c.last_arrival_s = next;
  const std::size_t index = c.arrivals_issued++;
  const auto client =
      static_cast<std::uint32_t>(c.clients > 0 ? index % c.clients : 0);
  sim::Time at = sim::from_seconds(next);
  if (at < w.sim.now()) at = w.sim.now();
  w.sim.at(at, [this, &c, client] {
    launch_flow(c, client);
    schedule_next_arrival(c);
  });
}

void ShardedFleet::launch_flow(Cell& c, std::uint32_t local_client) {
  app::World& w = *c.world;
  const std::size_t C = cells_.size();
  const std::uint64_t k = c.launched++;
  const std::uint64_t g = c.index + k * C;
  const std::size_t local_index = c.records.size();

  FlowRecord rec;
  rec.id = static_cast<std::uint32_t>(g);
  rec.client = c.client_base + local_client;
  rec.bytes = flow_bytes(g);
  rec.start_s = sim::to_seconds(w.sim.now());
  c.records.push_back(rec);
  c.energy_at_start.push_back(w.tracker.total_j());
  c.rx_at_start.push_back(w.wifi_if->rx_bytes() + w.cell_if->rx_bytes());
  EMPTCP_TRACE(w.sim, flow_start(w.sim.now(), rec.id, rec.bytes));

  const bool cross = cfg_.sharding.cross_every != 0 && C > 1 &&
                     (k + 1) % cfg_.sharding.cross_every == 0;
  const net::Addr target =
      cross ? app::cell_addressing((c.index + 1) % C).server : w.addrs.server;

  auto handle = app::make_client(w, cfg_.protocol, target);
  handle->set_app_tag(rec.id + 1);
  app::ClientConnHandle* h = handle.get();
  app::ClientConnHandle::Callbacks cb;
  cb.on_established = [this, h] { h->send(cfg_.scenario.request_bytes); };
  cb.on_eof = [this, h, &c, local_index] {
    h->shutdown_write();
    on_flow_done(c, local_index);
  };
  h->set_callbacks(std::move(cb));
  c.handles.push_back(std::move(handle));
  h->connect();
}

void ShardedFleet::on_flow_done(Cell& c, std::size_t local_index) {
  app::World& w = *c.world;
  FlowRecord& rec = c.records[local_index];
  rec.completed = true;
  rec.end_s = sim::to_seconds(w.sim.now());
  rec.delivered = c.handles[local_index]->bytes_received();
  // Energy attribution under overlap, per cell: the cell's device energy
  // over the flow's lifetime, weighted by the flow's share of the bytes
  // the cell received in that span. Exact for non-overlapping flows; a
  // fair split for concurrent ones.
  const double de = w.tracker.total_j() - c.energy_at_start[local_index];
  const std::uint64_t rx = w.wifi_if->rx_bytes() + w.cell_if->rx_bytes();
  const std::uint64_t db = rx - c.rx_at_start[local_index];
  rec.energy_j_est =
      db > 0
          ? de * (static_cast<double>(rec.bytes) / static_cast<double>(db))
          : 0.0;
  ++c.completed;
  EMPTCP_TRACE(w.sim, flow_complete(w.sim.now(), rec.id, rec.bytes,
                                    rec.fct_s(), rec.energy_j_est));

  if (cfg_.mode != FleetConfig::Mode::kClosed) return;
  std::size_t& done = c.flows_done_per_client[rec.client - c.client_base];
  ++done;
  if (cfg_.flows_per_client != 0 && done >= cfg_.flows_per_client) return;
  const std::uint32_t client = rec.client - c.client_base;
  const double think = cfg_.think.sample_s(w.sim.rng());
  if (think <= 0.0) {
    launch_flow(c, client);
  } else {
    w.sim.in(sim::from_seconds(think),
             [this, &c, client] { launch_flow(c, client); });
  }
}

bool ShardedFleet::all_flows_done() const {
  if (cfg_.mode == FleetConfig::Mode::kOpen) {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    bool arrivals_done = true;
    for (const auto& c : cells_) {
      started += c->launched;
      completed += c->completed;
      arrivals_done = arrivals_done && c->arrivals_done;
    }
    return arrivals_done && completed >= started && started > 0;
  }
  const std::size_t budget = cfg_.total_flows();
  return budget != 0 && flows_completed() >= budget;
}

void ShardedFleet::run_until(double t_s) {
  engine_->run_until(sim::from_seconds(t_s));
}

void ShardedFleet::run_to_completion() {
  engine_->run_until(cfg_.scenario.max_sim_time,
                     [this] { return all_flows_done(); });
}

FleetMetrics ShardedFleet::run(std::uint64_t seed) {
  start(seed);
  run_to_completion();
  return finish();
}

FleetMetrics ShardedFleet::finish() {
  const bool all_done = all_flows_done();
  if (all_done) {
    // Post-download tail energy, fleet-wide: advance until every cell's
    // radios fell back to idle, bounded like drain_tails.
    const sim::Time end = engine_->now() + cfg_.scenario.max_drain;
    engine_->run_until(end, [this] {
      for (const auto& c : cells_) {
        if (!c->world->tracker.all_idle()) return false;
      }
      return true;
    });
  }
  for (auto& c : cells_) c->world->tracker.stop();
  return merge(all_done);
}

FleetMetrics ShardedFleet::merge(bool all_done) {
  FleetMetrics m;
  m.flows_started = flows_started();
  m.flows_completed = flows_completed();

  // Flow records, globally ordered by flow id (deterministic: ids are a
  // pure function of (cell, launch index)).
  for (auto& c : cells_) {
    for (std::size_t li = 0; li < c->records.size(); ++li) {
      FlowRecord& r = c->records[li];
      if (!r.completed) r.delivered = c->handles[li]->bytes_received();
      m.flows.push_back(r);
    }
  }
  std::sort(m.flows.begin(), m.flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.id < b.id;
            });

  std::uint64_t bytes = 0;
  for (const FlowRecord& r : m.flows) {
    if (!r.completed) continue;
    bytes += r.bytes;
    m.fct_hist.add(r.fct_s());
    if (r.bytes > 0) m.epb_hist.add(r.energy_per_bit_uj());
  }

  // World-level totals, summed across cells (collect_core semantics).
  app::RunMetrics& run = m.run;
  run.completed = all_done;
  run.download_time_s = sim::to_seconds(engine_->now());
  run.bytes_received = bytes;
  run.wifi_capacity_mbps = cfg_.scenario.wifi.down_mbps;
  run.cell_capacity_mbps = cfg_.scenario.cell.down_mbps;
  std::uint64_t wifi_rx = 0;
  std::uint64_t cell_rx = 0;
  std::uint64_t fluid_bytes = 0;
  std::uint64_t fluid_entries = 0;
  for (const auto& cp : cells_) {
    app::World& w = *cp->world;
    if (w.fast_path) {
      fluid_bytes += w.fast_path->fluid_bytes();
      fluid_entries += w.fast_path->fluid_entries();
    }
    if (cfg_.scenario.record_series) {
      add_series(run.energy_series, w.tracker.energy_series(),
                 &energy::EnergyTracker::SeriesPoint::cumulative_j);
      add_series(run.wifi_rate_series,
                 w.tracker.rate_series(w.wifi_if->type()),
                 &energy::EnergyTracker::RatePoint::mbps);
      add_series(run.cell_rate_series,
                 w.tracker.rate_series(w.cell_if->type()),
                 &energy::EnergyTracker::RatePoint::mbps);
    }
    run.energy_j += w.tracker.total_j();
    run.wifi_j += w.tracker.iface_j(w.wifi_if->type());
    run.cell_j += w.tracker.iface_j(w.cell_if->type());
    wifi_rx += w.wifi_if->rx_bytes();
    cell_rx += w.cell_if->rx_bytes();
    run.cellular_used = run.cellular_used || w.cell_if->rx_bytes() > 5000;
    run.cellular_activations +=
        static_cast<int>(w.cell_radio.activations());
    run.profile.sched_slab_slots += w.sim.scheduler().slab_size();
    run.profile.packet_pool_slots +=
        w.sim.context<net::PacketPool>().allocated();
  }
  if (run.download_time_s > 0.0) {
    run.mean_wifi_mbps =
        static_cast<double>(wifi_rx) * 8.0 / 1e6 / run.download_time_s;
    run.mean_cell_mbps =
        static_cast<double>(cell_rx) * 8.0 / 1e6 / run.download_time_s;
  }
  run.profile.events_executed = engine_->events_executed();

  // Telemetry sidecar (wall-clock; never merged into trace artifacts).
  // Per-place cross_tx comes from the cell's outbound backbone halves —
  // a plain accessor, deliberately not a trace metric (per-link counts
  // depend on the partition and would leak topology into artifacts).
  if (runtime::Telemetry::enabled()) {
    m.perf = analysis::make_perf_doc(engine_->perf());
    for (std::size_t i = 0;
         i < cells_.size() && i < m.perf->places.size(); ++i) {
      const Cell& c = *cells_[i];
      std::uint64_t tx = 0;
      if (c.up) tx += c.up->packets_posted();
      if (c.down) tx += c.down->packets_posted();
      m.perf->places[c.place].cross_tx = tx;
    }
  }

  if (cfg_.scenario.trace) {
    // Merged trace: concatenate in cell order, then stable-sort by virtual
    // time — equal-time records keep cell order, so the stream is
    // byte-identical for any shard count. One cell's stream is already in
    // time order, and sorting it costs a campaign cell ~10% of its run.
    for (const auto& cp : cells_) {
      const auto& ev = cp->world->sim.trace().events();
      run.trace_events.insert(run.trace_events.end(), ev.begin(), ev.end());
    }
    if (cells_.size() > 1) {
      std::stable_sort(run.trace_events.begin(), run.trace_events.end(),
                       [](const trace::Event& a, const trace::Event& b) {
                         return a.t < b.t;
                       });
    }

    // Merged metrics: counters summed by name in first-seen (cell) order;
    // the fleet-level gauges are computed globally — per-cell gauges would
    // leak the partition into the artifact.
    std::vector<trace::MetricSnapshot> counters;
    for (const auto& cp : cells_) {
      for (const trace::Counter& ctr :
           cp->world->sim.trace().metrics().counters()) {
        auto it = std::find_if(counters.begin(), counters.end(),
                               [&](const trace::MetricSnapshot& s) {
                                 return s.name == ctr.name();
                               });
        if (it == counters.end()) {
          counters.push_back(
              {ctr.name(), static_cast<double>(ctr.value())});
        } else {
          it->value += static_cast<double>(ctr.value());
        }
      }
    }
    run.trace_metrics = std::move(counters);
    auto gauge = [&](const char* name, double v) {
      run.trace_metrics.push_back({name, v});
    };
    gauge("run.completed", all_done ? 1.0 : 0.0);
    gauge("run.download_time_s", run.download_time_s);
    gauge("run.energy_j", run.energy_j);
    gauge("run.wifi_j", run.wifi_j);
    gauge("run.cell_j", run.cell_j);
    gauge("run.bytes_received", static_cast<double>(bytes));
    gauge("sim.events_executed",
          static_cast<double>(run.profile.events_executed));
    if (cells_.front()->world->fast_path) {
      gauge("run.fluid_bytes", static_cast<double>(fluid_bytes));
      gauge("run.fluid_entries", static_cast<double>(fluid_entries));
    }
    gauge("fleet.clients", static_cast<double>(cfg_.clients));
    gauge("fleet.cells", static_cast<double>(cells_.size()));
    gauge("fleet.clients_per_cell",
          static_cast<double>(cfg_.sharding.clients_per_cell));
    gauge("fleet.cross_every",
          static_cast<double>(cfg_.sharding.cross_every));
    gauge("fleet.cross_messages",
          static_cast<double>(engine_->cross_messages()));
    gauge("fleet.flows_started", static_cast<double>(m.flows_started));
    gauge("fleet.flows_completed", static_cast<double>(m.flows_completed));
    run.profile.trace_events = run.trace_events.size();
  }
  return m;
}

}  // namespace emptcp::workload
