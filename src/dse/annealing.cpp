// hi-opt: simulated-annealing baseline (the paper compares Algorithm 1
// against the general-purpose `simanneal` optimizer and reports a ~3x
// speedup).
//
// State: one full design point.  Moves: step the Tx level, flip the MAC,
// flip the routing scheme, or toggle one optional location (rejecting
// mutations that break the topological constraints).  Energy: simulated
// power plus a steep penalty proportional to the PDR shortfall below
// PDRmin, so the annealer is pulled toward feasible low-power designs.
// Cooling: exponential (Kirkpatrick) schedule from t_start to t_end.
//
// Every visited state is folded over the run's K channel realizations
// (RobustBatch; a nominal run is the K = 1, Γ = 0 fold); the energy runs
// on the worst-case PDR and the robust power, so the walk is pulled
// toward designs that are cheap and reliable under EVERY realization.
//
// Entry point: run_annealing(scenario, eval, ExplorationOptions),
// declared in dse/explorer.hpp (or Explorer::annealing().run(...)).
#include <cmath>

#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "dse/robustness.hpp"

namespace hi::dse {

namespace {

/// Discrete state of the annealer.
struct State {
  model::Topology topology;
  int tx_level = 0;
  model::MacProtocol mac = model::MacProtocol::kCsma;
  model::RoutingProtocol routing = model::RoutingProtocol::kStar;
};

model::NetworkConfig to_config(const model::Scenario& sc, const State& s) {
  return sc.make_config(s.topology, s.tx_level, s.mac, s.routing);
}

/// Proposes a feasibility-preserving random neighbour of `s`.
State neighbour(const model::Scenario& sc, const State& s, Rng& rng) {
  State next = s;
  // Try a handful of times; a move that cannot produce a feasible state
  // falls through to the (always feasible) protocol flips.
  for (int attempt = 0; attempt < 8; ++attempt) {
    switch (rng.uniform_index(4)) {
      case 0: {  // step the Tx power level
        const int dir = rng.bernoulli(0.5) ? 1 : -1;
        const int levels = sc.chip.num_tx_levels();
        next.tx_level = ((s.tx_level + dir) % levels + levels) % levels;
        return next;
      }
      case 1:  // flip MAC
        next.mac = s.mac == model::MacProtocol::kCsma
                       ? model::MacProtocol::kTdma
                       : model::MacProtocol::kCsma;
        return next;
      case 2:  // flip routing (coordinator presence is enforced below)
        next.routing = s.routing == model::RoutingProtocol::kStar
                           ? model::RoutingProtocol::kMesh
                           : model::RoutingProtocol::kStar;
        if (next.routing == model::RoutingProtocol::kMesh ||
            next.topology.has(sc.coordinator)) {
          return next;
        }
        next = s;
        break;
      default: {  // toggle one location
        const int loc =
            static_cast<int>(rng.uniform_index(channel::kNumLocations));
        next.topology.set(loc, !s.topology.has(loc));
        if (sc.topology_feasible(next.topology) &&
            (next.routing == model::RoutingProtocol::kMesh ||
             next.topology.has(sc.coordinator))) {
          return next;
        }
        next = s;
        break;
      }
    }
  }
  return next;  // == s; the step is a no-op, acceptance is trivial
}

}  // namespace

ExplorationResult run_annealing(const model::Scenario& scenario,
                                Evaluator& eval,
                                const ExplorationOptions& opt) {
  const int steps = opt.budget >= 0 ? opt.budget : 400;
  HI_REQUIRE(steps >= 1, "need at least one step");
  HI_REQUIRE(opt.t_start_mw > 0.0 && opt.t_end_mw > 0.0 &&
                 opt.t_start_mw >= opt.t_end_mw,
             "temperatures must satisfy t_start >= t_end > 0");
  detail::RunScope scope(ExplorerKind::kAnnealing, eval, opt);
  Rng rng(opt.seed);
  RobustBatch batch(eval, opt.threads, opt.robust);

  const auto energy = [&](double pdr, double power_mw) {
    const double shortfall = std::max(0.0, opt.pdr_min - pdr);
    return power_mw + opt.penalty_mw_per_pdr * shortfall;
  };

  // Random feasible starting state.
  const std::vector<model::Topology> topologies =
      scenario.feasible_topologies();
  HI_REQUIRE(!topologies.empty(), "scenario has no feasible topology");
  State cur;
  cur.topology = topologies[rng.uniform_index(topologies.size())];
  cur.tx_level = static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(scenario.chip.num_tx_levels())));
  cur.mac = rng.bernoulli(0.5) ? model::MacProtocol::kCsma
                               : model::MacProtocol::kTdma;
  cur.routing = cur.topology.has(scenario.coordinator) && rng.bernoulli(0.5)
                    ? model::RoutingProtocol::kStar
                    : model::RoutingProtocol::kMesh;

  ExplorationResult res;
  const auto visit = [&](const model::NetworkConfig& cfg) {
    const RobustEvaluation rev = batch.evaluate_one(cfg);
    detail::offer(res, cfg, rev, opt.pdr_min);
    return energy(rev.worst_pdr, rev.robust_power_mw);
  };
  double cur_energy = visit(to_config(scenario, cur));

  const double decay =
      std::pow(opt.t_end_mw / opt.t_start_mw, 1.0 / steps);
  double temperature = opt.t_start_mw;

  obs::Counter& accepted = scope.registry().counter("sa.accepted");
  for (res.iterations = 0; res.iterations < steps; ++res.iterations) {
    temperature *= decay;
    const State cand = neighbour(scenario, cur, rng);
    const double cand_energy = visit(to_config(scenario, cand));
    const double delta = cand_energy - cur_energy;
    if (delta <= 0.0 || rng.bernoulli(std::exp(-delta / temperature))) {
      accepted.add(1);
      cur = cand;
      cur_energy = cand_energy;
    }
    scope.progress(res.iterations + 1, res);
  }

  scope.finish(res);
  return res;
}

}  // namespace hi::dse
