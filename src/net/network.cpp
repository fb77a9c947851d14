#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "channel/locations.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"
#include "net/app.hpp"
#include "net/tdma.hpp"

namespace hi::net {

namespace detail {

namespace {

/// One fully wired node.  Construction order matters: radio -> MAC ->
/// routing -> app, each layer installing its callbacks into the one below.
struct NodeBundle {
  NodeBundle(des::Kernel& kernel, Medium& medium, int loc,
             const model::NetworkConfig& cfg, const SimParams& params,
             int slot_index, int num_slots, std::vector<int> peers, Rng rng,
             LatencyRecorder* latency, int net_id, int channel_id)
      : location(loc),
        radio(kernel, medium, loc, make_radio_params(cfg, params),
              params.trace, net_id, channel_id) {
    medium.attach(&radio);
    if (cfg.mac.protocol == model::MacProtocol::kCsma) {
      CsmaParams cs = params.csma;
      cs.access_mode = cfg.mac.access_mode;
      mac = std::make_unique<CsmaMac>(kernel, radio, cfg.mac.buffer_packets,
                                      cs, rng.fork("csma"), params.trace);
    } else {
      TdmaParams td;
      td.slot_s = cfg.mac.slot_s;
      td.slot_index = slot_index;
      td.num_slots = num_slots;
      mac = std::make_unique<TdmaMac>(kernel, radio, cfg.mac.buffer_packets,
                                      td, params.trace);
    }
    if (cfg.routing.protocol == model::RoutingProtocol::kStar) {
      routing = std::make_unique<StarRouting>(*mac, loc,
                                              cfg.routing.coordinator);
    } else {
      routing = std::make_unique<MeshRouting>(*mac, loc,
                                              cfg.routing.max_hops);
    }
    app = std::make_unique<AppLayer>(kernel, *routing, cfg.app,
                                     std::move(peers), rng.fork("app"),
                                     latency);
  }

  static RadioParams make_radio_params(const model::NetworkConfig& cfg,
                                       const SimParams& params) {
    RadioParams rp;
    rp.tx_dbm = cfg.radio.tx_dbm;
    rp.tx_mw = cfg.radio.tx_mw;
    rp.sensitivity_dbm = cfg.radio.rx_dbm;
    rp.rx_mw = cfg.radio.rx_mw;
    rp.bit_rate_bps = cfg.radio.bit_rate_bps;
    rp.capture_db = params.capture_db;
    return rp;
  }

  int location;
  Radio radio;
  std::unique_ptr<Mac> mac;
  std::unique_ptr<Routing> routing;
  std::unique_ptr<AppLayer> app;
};

using Body = std::vector<std::unique_ptr<NodeBundle>>;

/// Fills `res.nodes` / `res.pdr` / power / lifetime from one body's node
/// set — Eqs. (6), (7) and (4) — and emits the end-of-run per-node
/// trace records.  The per-pair PDR loop treats every node of `nodes`
/// as a traffic peer, so it must be exactly one body.
void summarize_nodes(const Body& nodes, const model::NetworkConfig& cfg,
                     const SimParams& params, SimResult& res) {
  RunningStats pdr_nodes;
  for (const auto& nb : nodes) {
    NodeResult nr;
    nr.location = nb->location;
    nr.app_sent = nb->app->sent();
    nr.radio = nb->radio.stats();
    nr.mac = nb->mac->stats();
    nr.routing = nb->routing->stats();
    nr.power_mw = cfg.app.baseline_mw +
                  (nb->radio.tx_energy_mj() + nb->radio.rx_energy_mj()) /
                      params.duration_s;
    // Eq. (6): average per-pair delivery ratio over the other N-1
    // origins, using per-pair sent counts N(s) i->k.
    double acc = 0.0;
    int terms = 0;
    for (const auto& other : nodes) {
      if (other->location == nb->location) continue;
      const std::uint64_t sent = other->app->sent_to(nb->location);
      if (sent == 0) continue;  // degenerate ultra-short run
      acc += static_cast<double>(nb->app->received_from(other->location)) /
             static_cast<double>(sent);
      ++terms;
    }
    nr.pdr = terms > 0 ? acc / terms : 0.0;
    pdr_nodes.add(nr.pdr);
    if (params.trace != nullptr) {
      // End-of-run per-node summaries: radio state dwell (derived from
      // the metered energy, which charges packet transactions only) and
      // the energy split itself.
      params.trace->record(obs::TraceEvent{
          params.duration_s, obs::TraceKind::kRadioDwell, nb->location, -1,
          static_cast<std::int64_t>(nr.radio.tx_packets),
          nb->radio.tx_energy_mj() / nb->radio.params().tx_mw,
          nb->radio.rx_energy_mj() / nb->radio.params().rx_mw});
      params.trace->record(obs::TraceEvent{
          params.duration_s, obs::TraceKind::kNodeEnergy, nb->location, -1,
          static_cast<std::int64_t>(nr.app_sent), nb->radio.tx_energy_mj(),
          nb->radio.rx_energy_mj()});
    }
    res.nodes.push_back(nr);
  }
  res.pdr = pdr_nodes.mean();  // Eq. (7)

  // Lifetime, Eq. (4): the star coordinator has its own larger energy
  // store (paper Sec. 4.1) and is excluded; in a mesh all nodes count.
  RunningStats powers;
  double worst = 0.0;
  for (const NodeResult& nr : res.nodes) {
    const bool is_coordinator =
        cfg.routing.protocol == model::RoutingProtocol::kStar &&
        nr.location == cfg.routing.coordinator;
    if (is_coordinator) continue;
    powers.add(nr.power_mw);
    worst = std::max(worst, nr.power_mw);
  }
  res.worst_power_mw = worst;
  res.mean_power_mw = powers.mean();
  res.nlt_s = worst > 0.0 ? cfg.battery_j / mw_to_w(worst) : 0.0;
}

/// One atomic flush per run keeps the event loop itself free of registry
/// traffic; the per-layer stats structs already hold the counts.
/// Order-independent sums, so parallel runs recording into a shared
/// registry reach the same totals as serial ones.
void flush_run_metrics(obs::MetricsRegistry& m, const des::Kernel& kernel,
                       const BodiesResult& run) {
  m.counter("net.runs").add(1);
  m.counter("des.events").add(kernel.events_processed());
  m.counter("des.cancelled").add(kernel.events_cancelled());
  m.gauge("des.heap_highwater")
      .update_max(static_cast<double>(kernel.heap_highwater()));
  m.counter("des.alloc_slabs").add(kernel.arena_chunks());
  m.counter("des.alloc_handler_heap").add(kernel.handler_heap_allocs());
  m.counter("des.heap_sift").add(kernel.heap_sift_steps());
  m.counter("net.medium.transmissions").add(run.medium.transmissions);
  m.counter("net.medium.deliveries_offered")
      .add(run.medium.deliveries_offered);
  m.counter("net.medium.below_sensitivity").add(run.medium.below_sensitivity);
  std::uint64_t tx = 0, rx_ok = 0, rx_corrupted = 0, rx_missed = 0,
                rx_aborted = 0, enq = 0, sent = 0, drop = 0, backoffs = 0,
                app_sent = 0;
  for (const SimResult& body : run.bodies) {
    for (const NodeResult& nr : body.nodes) {
      tx += nr.radio.tx_packets;
      rx_ok += nr.radio.rx_ok;
      rx_corrupted += nr.radio.rx_corrupted;
      rx_missed += nr.radio.rx_missed;
      rx_aborted += nr.radio.rx_aborted;
      enq += nr.mac.enqueued;
      sent += nr.mac.sent;
      drop += nr.mac.dropped_buffer;
      backoffs += nr.mac.backoffs;
      app_sent += nr.app_sent;
    }
  }
  m.counter("net.radio.tx_packets").add(tx);
  m.counter("net.radio.rx_ok").add(rx_ok);
  m.counter("net.radio.rx_corrupted").add(rx_corrupted);
  m.counter("net.radio.rx_missed").add(rx_missed);
  m.counter("net.radio.rx_aborted").add(rx_aborted);
  m.counter("net.mac.enqueued").add(enq);
  m.counter("net.mac.sent").add(sent);
  m.counter("net.mac.dropped_buffer").add(drop);
  m.counter("net.mac.backoffs").add(backoffs);
  m.counter("net.app.sent").add(app_sent);
  for (const SimResult& body : run.bodies) {
    // Gated so latency-off runs record exactly the pre-latency counter
    // set (counter-invariance: the fuzz suite diffs registries).
    if (!body.latency.collected) continue;
    m.counter("net.latency_samples").add(body.latency.samples);
    m.histogram("net.latency_p95_s").observe(body.latency.p95_s);
  }
  if (run.bodies.size() > 1) {
    // The coexistence ledger exists only where there is coexistence, so
    // a one-body run's registry is exactly the single-body one.
    m.counter("net.crowd_runs").add(1);
    m.counter("net.crowd_bodies").add(run.bodies.size());
    m.counter("net.crowd_cross_offered").add(run.medium.cross_offered);
    m.counter("net.crowd_cross_below_sensitivity")
        .add(run.medium.cross_below_sensitivity);
    m.counter("net.crowd_foreign_heard").add(run.crowd.foreign_heard);
    m.counter("net.crowd_foreign_decoded").add(run.crowd.foreign_decoded);
  }
}

}  // namespace

BodiesResult run_bodies(const model::NetworkConfig& cfg,
                        channel::ChannelModel& channel,
                        const SimParams& params,
                        const std::vector<Rng>& lanes) {
  const std::vector<int> locs = cfg.topology.locations();
  const int n = static_cast<int>(locs.size());
  const std::size_t bodies = lanes.size();
  HI_REQUIRE(n >= 2, "simulate: need at least 2 nodes, topology has " << n);
  HI_REQUIRE(params.duration_s > params.gen_guard_s,
             "simulate: duration " << params.duration_s
                                   << " s must exceed the generation guard "
                                   << params.gen_guard_s << " s");
  if (cfg.routing.protocol == model::RoutingProtocol::kStar) {
    HI_REQUIRE(cfg.topology.has(cfg.routing.coordinator),
               "star coordinator location " << cfg.routing.coordinator
                                            << " carries no node");
  }

  des::Kernel kernel;
  // One arena for all bodies, pre-sized so the steady-state pending set
  // (a handful of events per node) never grows mid-run.  Under one slab
  // for a single body, so it costs a one-body run nothing.
  kernel.reserve(bodies * static_cast<std::size_t>(n) * 4);
  Medium medium(kernel, channel, params.trace);

  // Sized once, so the recorders the apps point at never move.
  std::vector<LatencyRecorder> latency(params.collect_latency ? bodies : 0);
  std::vector<Body> nets(bodies);
  for (std::size_t b = 0; b < bodies; ++b) {
    const int net_id = static_cast<int>(b);
    LatencyRecorder* recorder =
        params.collect_latency ? &latency[b] : nullptr;
    Body& nodes = nets[b];
    nodes.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const int loc = locs[static_cast<std::size_t>(k)];
      std::vector<int> peers;
      peers.reserve(static_cast<std::size_t>(n) - 1);
      for (int other : locs) {
        if (other != loc) peers.push_back(other);
      }
      nodes.push_back(std::make_unique<NodeBundle>(
          kernel, medium, loc, cfg, params,
          /*slot_index=*/k, /*num_slots=*/n, std::move(peers),
          lanes[b].fork(static_cast<std::uint64_t>(loc)), recorder, net_id,
          net_id * channel::kNumLocations + loc));
    }
  }

  const double gen_end = params.duration_s - params.gen_guard_s;
  for (Body& nodes : nets) {
    for (auto& nb : nodes) {
      nb->mac->start();
      nb->app->start(gen_end);
    }
  }
  kernel.run_until(params.duration_s);

  // ---- Metrics ------------------------------------------------------------
  BodiesResult out;
  out.bodies.resize(bodies);
  out.medium = medium.stats();
  out.events = kernel.events_processed();
  for (std::size_t b = 0; b < bodies; ++b) {
    SimResult& res = out.bodies[b];
    res.duration_s = params.duration_s;
    if (params.collect_latency) {
      res.latency = latency[b].summary();
    }
    summarize_nodes(nets[b], cfg, params, res);
    for (const auto& nb : nets[b]) {
      out.crowd.foreign_heard += nb->radio.crowd_stats().foreign_heard;
      out.crowd.foreign_decoded += nb->radio.crowd_stats().foreign_decoded;
    }
  }

  if (params.trace != nullptr) {
    params.trace->record(obs::TraceEvent{
        params.duration_s, obs::TraceKind::kKernel, -1, -1,
        static_cast<std::int64_t>(kernel.events_processed()),
        static_cast<double>(kernel.events_cancelled()),
        static_cast<double>(kernel.heap_highwater())});
  }
  if (params.metrics != nullptr) {
    flush_run_metrics(*params.metrics, kernel, out);
  }
  return out;
}

ReplicaSeeds replica_seeds(const SimParams& params, int r) {
  const auto label = static_cast<std::uint64_t>(r);
  ReplicaSeeds out{params, 0};
  out.params.seed = Rng(params.seed).fork(label).next_u64();
  out.channel_seed =
      Rng(params.channel_seed != 0 ? params.channel_seed : params.seed)
          .fork(label)
          .next_u64() ^
      0xC0FFEE;
  return out;
}

SimResult fold(std::vector<SimResult> results, double battery_j,
               RunningStats* pdr_spread, RunningStats* power_spread) {
  HI_REQUIRE(!results.empty(), "simulate_averaged: need at least one run");
  RunningStats pdr_acc, worst_acc, mean_acc, min_pdr_acc;
  RunningStats lat_mean, lat_p50, lat_p95;
  double lat_max = 0.0;
  std::uint64_t lat_samples = 0;
  double events_total = 0.0;
  CrowdSummary crowd;
  for (const SimResult& one : results) {
    pdr_acc.add(one.pdr);
    worst_acc.add(one.worst_power_mw);
    mean_acc.add(one.mean_power_mw);
    events_total += static_cast<double>(one.events);
    if (one.latency.collected) {
      // Mirror the PDR treatment: mean over replications of each
      // quantile, worst case for the max, total for the sample count.
      lat_mean.add(one.latency.mean_s);
      lat_p50.add(one.latency.p50_s);
      lat_p95.add(one.latency.p95_s);
      lat_max = std::max(lat_max, one.latency.max_s);
      lat_samples += one.latency.samples;
    }
    if (one.crowd.present) {
      min_pdr_acc.add(one.crowd.min_body_pdr);
      crowd.cross_offered += one.crowd.cross_offered;
      crowd.cross_below_sensitivity += one.crowd.cross_below_sensitivity;
      crowd.foreign_heard += one.crowd.foreign_heard;
      crowd.foreign_decoded += one.crowd.foreign_decoded;
    }
  }
  if (pdr_spread != nullptr) {
    *pdr_spread = pdr_acc;
  }
  if (power_spread != nullptr) {
    *power_spread = worst_acc;
  }
  SimResult avg = std::move(results.front());
  avg.pdr = pdr_acc.mean();
  avg.worst_power_mw = worst_acc.mean();
  avg.mean_power_mw = mean_acc.mean();
  avg.nlt_s = avg.worst_power_mw > 0.0
                  ? battery_j / mw_to_w(avg.worst_power_mw)
                  : 0.0;
  avg.events = static_cast<std::uint64_t>(events_total);
  if (avg.latency.collected) {
    avg.latency.samples = lat_samples;
    avg.latency.mean_s = lat_mean.mean();
    avg.latency.p50_s = lat_p50.mean();
    avg.latency.p95_s = lat_p95.mean();
    avg.latency.max_s = lat_max;
  }
  if (avg.crowd.present) {
    crowd.present = true;
    crowd.bodies = avg.crowd.bodies;
    crowd.min_body_pdr = min_pdr_acc.mean();
    avg.crowd = crowd;
  }
  return avg;
}

SimResult replicate(const SimParams& params, int runs, double battery_j,
                    const Replica& run, RunningStats* pdr_spread,
                    RunningStats* power_spread) {
  std::vector<SimResult> results;
  for (int r = 0; r < runs; ++r) {
    const ReplicaSeeds seeds = replica_seeds(params, r);
    results.push_back(run(seeds.params, seeds.channel_seed));
  }
  return fold(std::move(results), battery_j, pdr_spread, power_spread);
}

}  // namespace detail

SimResult simulate(const model::NetworkConfig& cfg,
                   channel::ChannelModel& channel, const SimParams& params) {
  detail::BodiesResult run =
      detail::run_bodies(cfg, channel, params, {Rng(params.seed)});
  SimResult res = std::move(run.bodies.front());
  res.medium = run.medium;
  res.events = run.events;
  return res;
}

ChannelFactory default_channel_factory() {
  return [](std::uint64_t seed) {
    return channel::make_default_body_channel(seed);
  };
}

SimResult simulate_averaged(const model::NetworkConfig& cfg,
                            const SimParams& params, int runs,
                            const ChannelFactory& make_channel,
                            RunningStats* pdr_spread,
                            RunningStats* power_spread) {
  return detail::replicate(
      params, runs, cfg.battery_j,
      [&](const SimParams& run_params, std::uint64_t channel_seed) {
        return simulate(cfg, *make_channel(channel_seed), run_params);
      },
      pdr_spread, power_spread);
}

}  // namespace hi::net
