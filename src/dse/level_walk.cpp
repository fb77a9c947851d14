#include "dse/level_walk.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "model/power.hpp"
#include "obs/timer.hpp"

namespace hi::dse {

LevelWalk::LevelWalk(const model::Scenario& scenario, Evaluator& eval,
                     int threads, const RobustnessOptions& robust,
                     const std::vector<double>& floor_pdrs)
    : batch_(eval, threads, robust),
      encoding_(scenario, batch_.options().gamma) {
  // Termination bounds (Sec. 3), per cell of the (Tx level, routing, N)
  // grid.  The floor is model::measured_power_floor_mw — delivery
  // accounting against the simulator's own energy metering, not the
  // analytic P̄lb (the fuzzer found P̄lb overshooting measured powers
  // when CSMA saturation drops packets before they are transmitted).
  // Both the cost and the floor carry the cell's Γ-protection (exactly
  // 0.0 when Γ = 0), and the floor holds for EVERY realization, so it
  // bounds the worst one.
  const int gamma = encoding_.gamma();
  const net::SimParams& sp = eval.settings().sim;
  for (int lvl = 0; lvl < scenario.chip.num_tx_levels(); ++lvl) {
    for (const auto rt :
         {model::RoutingProtocol::kStar, model::RoutingProtocol::kMesh}) {
      for (int n = scenario.min_nodes; n <= scenario.max_nodes; ++n) {
        model::Topology t;
        for (int i = 0; i < n; ++i) t.set(i, true);
        // Placement and MAC never enter the cost or the floor — any
        // representative topology of the right size will do.
        const model::NetworkConfig cfg = scenario.make_config(
            t, lvl, model::MacProtocol::kCsma, rt);
        const double prot = model::robust_protection_mw(cfg, gamma);
        Cell cell{model::node_power_mw(cfg) + prot, {}};
        cell.floor_mw.reserve(floor_pdrs.size());
        for (const double pdr_min : floor_pdrs) {
          cell.floor_mw.push_back(
              model::measured_power_floor_mw(cfg, pdr_min, sp.duration_s,
                                             sp.gen_guard_s) +
              prot);
        }
        cells_.push_back(std::move(cell));
      }
    }
  }
}

double LevelWalk::floor_from(double level_mw, std::size_t pdr_index) const {
  // Cells strictly above (level − 2·tol) + tol: the proposed level
  // itself and everything the cuts have not removed yet.
  const double below = level_mw - 2.0 * 1e-12;
  double lo = std::numeric_limits<double>::infinity();
  for (const Cell& c : cells_) {
    if (c.cost_mw > below + 1e-12) {
      lo = std::min(lo, c.floor_mw[pdr_index]);
    }
  }
  return lo;
}

int LevelWalk::run(milp::Options milp, int max_levels,
                   obs::MetricsRegistry* metrics, const char* explorer,
                   const Rules& rules) {
  if (metrics != nullptr) {
    milp.metrics = metrics;
  }
  // Explorer metrics only: sweeps count their own (pareto.*).
  obs::MetricsRegistry* own = explorer != nullptr ? metrics : nullptr;
  const std::string prefix = explorer != nullptr ? explorer : "";
  int levels = 0;
  for (; levels < max_levels; ++levels) {
    const MilpRound round = [&] {  // RunMILP
      obs::ScopedTimer timer(own, prefix + ".milp_s");
      return encoding_.run_milp(milp);
    }();
    if (round.candidates.empty() ||
        (rules.stop_before_sim && rules.stop_before_sim(round))) {
      break;  // MILP dry, or the remaining levels cannot win
    }
    const std::vector<RobustEvaluation> revs = [&] {  // RunSim
      obs::ScopedTimer timer(own, prefix + ".sim_s");
      return batch_.evaluate(round.candidates);
    }();
    if (rules.stop_after_sim(round, revs)) {
      return levels + 1;
    }
    encoding_.add_power_cut_above(round.power_mw);  // Update
    if (own != nullptr) {
      own->counter(prefix + ".cuts_added").add(1);
      if (batch_.options().active()) {
        own->counter("dse.robust_cuts").add(1);
      }
    }
    if (rules.after_cut) {
      rules.after_cut(levels + 1);
    }
  }
  return levels;
}

}  // namespace hi::dse
