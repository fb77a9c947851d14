#include "crowd/crowd.hpp"

#include <algorithm>
#include <future>
#include <limits>
#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "exec/thread_pool.hpp"
#include "store/crowd_codec.hpp"

namespace hi::crowd {

namespace {

/// Canonical body order: ranks sorted by (y, x), input index breaking
/// ties.  order[rank] = input placement index.  Everything the RNG or
/// the channel sees is keyed by rank, so relabeling the placement list
/// cannot change any body's simulated bits.
std::vector<int> canonical_order(
    const std::vector<model::BodyPlacement>& pos) {
  std::vector<int> order(pos.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&pos](int a, int b) {
    const auto& pa = pos[static_cast<std::size_t>(a)];
    const auto& pb = pos[static_cast<std::size_t>(b)];
    if (pa.y_m != pb.y_m) return pa.y_m < pb.y_m;
    return pa.x_m < pb.x_m;
  });
  return order;
}

/// RNG lane of the body at canonical rank `rank`.  Rank 0's lane IS the
/// run seed — the M=1 collapse onto net::simulate's root.
Rng body_lane(std::uint64_t seed, int rank) {
  if (rank == 0) return Rng{seed};
  return Rng{Rng{seed}
                 .fork("crowd.body")
                 .fork(static_cast<std::uint64_t>(rank))
                 .next_u64()};
}

/// `base` re-targeted at `bodies` bodies.  An explicit placement list
/// must cover the largest swept M; smaller points take its prefix.
model::CrowdScenario scenario_at(const model::CrowdScenario& base,
                                 int bodies) {
  model::CrowdScenario sc = base;
  sc.bodies = bodies;
  if (!base.placement.empty()) {
    HI_REQUIRE(base.placement.size() >= static_cast<std::size_t>(bodies),
               "crowd sweep: explicit placement has "
                   << base.placement.size() << " entries, point needs "
                   << bodies);
    sc.placement.assign(base.placement.begin(),
                        base.placement.begin() + bodies);
  }
  return sc;
}

}  // namespace

std::unique_ptr<channel::CrowdChannel> make_crowd_channel_for(
    const model::CrowdScenario& sc, std::uint64_t seed) {
  const std::vector<model::BodyPlacement> pos = sc.positions();
  const std::vector<int> order = canonical_order(pos);
  std::vector<channel::BodyPose> poses;
  poses.reserve(pos.size());
  for (int idx : order) {
    const model::BodyPlacement& p = pos[static_cast<std::size_t>(idx)];
    poses.push_back(channel::BodyPose{p.x_m, p.y_m});
  }
  channel::InterBodyParams inter;
  inter.pl0_db = sc.inter.pl0_db;
  inter.d0_m = sc.inter.d0_m;
  inter.exponent = sc.inter.exponent;
  inter.shadow_db = sc.inter.shadow_db;
  inter.sigma_db = sc.inter.sigma_db;
  inter.tau_s = sc.inter.tau_s;
  inter.min_distance_m = sc.inter.min_distance_m;
  return channel::make_crowd_channel(seed, std::move(poses), {}, inter);
}

CrowdResult simulate_crowd(const model::CrowdScenario& sc,
                           channel::ChannelModel& channel,
                           const net::SimParams& params) {
  sc.validate();
  const model::NetworkConfig& cfg = sc.cfg;
  const int bodies = sc.bodies;
  const std::vector<int> order = canonical_order(sc.positions());

  // Bodies are built in canonical rank order: the medium's radio list,
  // the channel's body indices, and the RNG lanes all see ranks, never
  // input indices.
  std::vector<Rng> lanes;
  lanes.reserve(static_cast<std::size_t>(bodies));
  for (int rank = 0; rank < bodies; ++rank) {
    lanes.push_back(body_lane(params.seed, rank));
  }
  net::detail::BodiesResult run =
      net::detail::run_bodies(cfg, channel, params, lanes);

  // ---- Crowd aggregate, accumulated in canonical order so every
  // accumulator below is permutation-invariant.
  CrowdResult out;
  out.per_body.resize(static_cast<std::size_t>(bodies));
  out.summary.nodes.resize(static_cast<std::size_t>(bodies));
  RunningStats body_pdr, body_mean_power;
  double worst = 0.0;
  double min_pdr = std::numeric_limits<double>::infinity();
  for (int rank = 0; rank < bodies; ++rank) {
    const int input = order[static_cast<std::size_t>(rank)];
    net::SimResult& br = out.per_body[static_cast<std::size_t>(input)];
    br = std::move(run.bodies[static_cast<std::size_t>(rank)]);

    body_pdr.add(br.pdr);
    body_mean_power.add(br.mean_power_mw);
    worst = std::max(worst, br.worst_power_mw);
    min_pdr = std::min(min_pdr, br.pdr);

    // One summary row per body: stats summed over the body's nodes.
    net::NodeResult row;
    row.location = input;
    row.pdr = br.pdr;
    row.power_mw = br.worst_power_mw;
    for (const net::NodeResult& nr : br.nodes) {
      row.app_sent += nr.app_sent;
      row.radio.tx_packets += nr.radio.tx_packets;
      row.radio.rx_ok += nr.radio.rx_ok;
      row.radio.rx_corrupted += nr.radio.rx_corrupted;
      row.radio.rx_missed += nr.radio.rx_missed;
      row.radio.rx_aborted += nr.radio.rx_aborted;
      row.mac.enqueued += nr.mac.enqueued;
      row.mac.sent += nr.mac.sent;
      row.mac.dropped_buffer += nr.mac.dropped_buffer;
      row.mac.backoffs += nr.mac.backoffs;
      row.routing.originated += nr.routing.originated;
      row.routing.delivered += nr.routing.delivered;
      row.routing.duplicates += nr.routing.duplicates;
      row.routing.relayed += nr.routing.relayed;
    }
    out.summary.nodes[static_cast<std::size_t>(input)] = row;
  }

  net::SimResult& s = out.summary;
  s.pdr = body_pdr.mean();
  s.worst_power_mw = worst;
  s.mean_power_mw = body_mean_power.mean();
  s.nlt_s = worst > 0.0 ? cfg.battery_j / mw_to_w(worst) : 0.0;
  s.duration_s = params.duration_s;
  s.medium = run.medium;
  s.events = run.events;
  s.crowd.present = true;
  s.crowd.bodies = bodies;
  s.crowd.min_body_pdr = min_pdr;
  s.crowd.cross_offered = s.medium.cross_offered;
  s.crowd.cross_below_sensitivity = s.medium.cross_below_sensitivity;
  s.crowd.foreign_heard = run.crowd.foreign_heard;
  s.crowd.foreign_decoded = run.crowd.foreign_decoded;
  return out;
}

CrowdResult simulate_crowd_averaged(const model::CrowdScenario& sc,
                                    const net::SimParams& params, int runs) {
  // net::simulate_averaged's replication loop and fold, so an M=1 crowd
  // average collapses onto the single-body average bit for bit; the
  // first run's per-body rows ride along.
  CrowdResult avg;
  avg.summary = net::detail::replicate(
      params, runs, sc.cfg.battery_j,
      [&](const net::SimParams& run_params, std::uint64_t channel_seed) {
        CrowdResult one = simulate_crowd(
            sc, *make_crowd_channel_for(sc, channel_seed), run_params);
        if (avg.per_body.empty()) avg.per_body = std::move(one.per_body);
        return std::move(one.summary);
      });
  return avg;
}

dse::Evaluation to_evaluation(const CrowdResult& cr) {
  dse::Evaluation ev;
  ev.detail = cr.summary;
  ev.pdr = cr.summary.pdr;
  ev.power_mw = cr.summary.worst_power_mw;
  ev.nlt_s = cr.summary.nlt_s;
  return ev;
}

SweepResult sweep(const model::CrowdScenario& base, const net::SimParams& sim,
                  const SweepOptions& opt) {
  HI_REQUIRE(!opt.bodies.empty(), "crowd sweep: empty body-count list");
  HI_REQUIRE(opt.runs >= 1, "crowd sweep: need at least one run");
  const std::size_t count = opt.bodies.size();
  std::vector<model::CrowdScenario> points;
  std::vector<store::Digest> fps;
  points.reserve(count);
  fps.reserve(count);
  for (int m : opt.bodies) {
    points.push_back(scenario_at(base, m));
    points.back().validate();
    fps.push_back(store::crowd_point_fingerprint(points.back(), sim,
                                                 opt.runs));
  }

  SweepResult out;
  out.points.resize(count);
  // Probe the store first so only genuine misses are simulated.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < count; ++i) {
    out.points[i].bodies = opt.bodies[i];
    const dse::Evaluation* hit =
        opt.store != nullptr ? opt.store->find(fps[i], points[i].cfg)
                             : nullptr;
    if (hit != nullptr) {
      out.points[i].from_store = true;
      out.points[i].eval = *hit;
    } else {
      misses.push_back(i);
    }
  }

  // One task per (point, replication) of every miss, largest body count
  // first (stable on ties) so the longest runs start first and no single
  // point's serial replications set the wall clock.  A task's randomness
  // is replica_seeds(sim, r) alone, and each point folds its runs in run
  // order, so the schedule cannot change a bit.
  net::SimParams sp = sim;
  if (opt.metrics != nullptr) sp.metrics = opt.metrics;
  std::stable_sort(misses.begin(), misses.end(),
                   [&opt](std::size_t a, std::size_t b) {
                     return opt.bodies[a] > opt.bodies[b];
                   });
  std::vector<std::vector<net::SimResult>> replicas(count);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i : misses) {
    replicas[i].resize(static_cast<std::size_t>(opt.runs));
    for (std::size_t r = 0; r < replicas[i].size(); ++r) {
      tasks.emplace_back([&, i, r] {
        const net::detail::ReplicaSeeds seeds =
            net::detail::replica_seeds(sp, static_cast<int>(r));
        replicas[i][r] =
            simulate_crowd(points[i],
                           *make_crowd_channel_for(points[i],
                                                   seeds.channel_seed),
                           seeds.params)
                .summary;
      });
    }
  }
  if (opt.threads > 0) {
    exec::ThreadPool pool(opt.threads);
    std::vector<std::future<void>> futs;
    for (const std::function<void()>& task : tasks) {
      futs.push_back(pool.submit(task));
    }
    for (std::future<void>& f : futs) f.get();
  } else {
    for (const std::function<void()>& task : tasks) task();
  }

  // Commit in sweep order: write-through, honest accounting, progress.
  for (std::size_t i = 0; i < count; ++i) {
    SweepPoint& p = out.points[i];
    if (p.from_store) {
      ++out.store_hits;
    } else {
      p.eval = to_evaluation(CrowdResult{
          net::detail::fold(std::move(replicas[i]), points[i].cfg.battery_j),
          {}});
      ++out.simulations;
      if (opt.store != nullptr) {
        opt.store->put(fps[i], points[i].cfg, p.eval);
      }
    }
    if (opt.metrics != nullptr) {
      obs::MetricsRegistry& m = *opt.metrics;
      m.counter("crowd.points").add(1);
      if (p.from_store) {
        m.counter("crowd.store_hits").add(1);
        // Same resume-accounting channel the DSE layer uses, so "zero
        // re-simulation" is asserted the same way everywhere.
        m.counter("dse.store_hits").add(1);
      } else {
        m.counter("crowd.simulations").add(1);
      }
    }
    if (opt.progress) opt.progress(p);
  }
  if (opt.store != nullptr) opt.store->sync();
  return out;
}

}  // namespace hi::crowd
