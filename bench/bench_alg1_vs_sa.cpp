// Reproduces the paper's Sec. 4.2 baseline comparison: Algorithm 1 vs
// simulated annealing across the PDRmin range of interest (50..100%).
// The paper reports Algorithm 1 converging ~3x faster; the fair metric
// is cost-to-equal-quality, so we run the annealer with a generous
// budget and count the simulations it needs before its incumbent first
// matches Algorithm 1's optimum (within 2%).
#include <iostream>
#include <set>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dse/explorer.hpp"

namespace {

/// Annealer cost until its best feasible candidate reached
/// `target_power * (1 + tol)`.  Two countings:
///   steps  — every annealing step simulates, as in the paper's
///            cache-less `simanneal` baseline (the 3x claim's metric);
///   unique — distinct design points only (a cache-assisted annealer).
/// Returns {budget+1, budget+1} when the target was never reached.
struct SaCost {
  std::uint64_t steps;
  std::uint64_t unique;
};

SaCost cost_to_match(const hi::dse::ExplorationResult& sa, double pdr_min,
                     double target_power, double tol = 0.05) {
  std::set<std::uint64_t> seen;
  std::uint64_t step = 0;
  for (const auto& rec : sa.history) {
    ++step;
    seen.insert(rec.cfg.design_key());
    if (rec.sim_pdr >= pdr_min &&
        rec.sim_power_mw <= target_power * (1.0 + tol)) {
      return {step, seen.size()};
    }
  }
  return {sa.history.size() + 1, sa.simulations + 1};
}

}  // namespace

int main() {
  using namespace hi;
  const dse::EvaluatorSettings settings = bench::experiment_settings();
  bench::banner("Sec. 4.2: Algorithm 1 vs simulated annealing", settings);

  model::Scenario scenario;
  dse::Evaluator eval(settings);  // one cache; counters reset per explorer
  const int sa_steps =
      static_cast<int>(bench::env_long("HI_SA_STEPS", 1500));

  TextTable table;
  table.set_header({"PDRmin", "Alg.1 P (mW)", "SA best P (mW)",
                    "sims Alg.1", "SA steps to match", "SA unique to match",
                    "ratio (steps)"});
  RunningStats sim_ratio;
  for (double pdr_min : {0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99}) {
    eval.reset_counters();
    dse::ExplorationOptions a1;
    a1.pdr_min = pdr_min;
    // The paper's own configuration of Algorithm 1 (its literal alpha
    // rule) — this bench reproduces the paper's comparison; the sound
    // variant is measured in bench_alg1_vs_exhaustive.
    a1.bound = dse::TerminationBound::kPaperAlpha;
    const dse::ExplorationResult alg = dse::run_algorithm1(scenario, eval, a1);

    eval.reset_counters();
    dse::ExplorationOptions sa;
    sa.pdr_min = pdr_min;
    sa.budget = sa_steps;
    sa.seed = settings.sim.seed ^ 0xA11EA1;
    const dse::ExplorationResult ann = dse::run_annealing(scenario, eval, sa);

    if (!alg.feasible) {
      table.add_row({fmt_percent(pdr_min, 0), "(infeasible)"});
      continue;
    }
    const SaCost cost = cost_to_match(ann, pdr_min, alg.best_power_mw);
    const bool matched = cost.steps <= ann.history.size();
    if (alg.simulations > 0) {
      // A run that never matched contributes its full budget as a lower
      // bound on the true cost.
      sim_ratio.add(static_cast<double>(cost.steps) /
                    static_cast<double>(alg.simulations));
    }
    table.add_row(
        {fmt_percent(pdr_min, 0), fmt_double(alg.best_power_mw, 3),
         ann.feasible ? fmt_double(ann.best_power_mw, 3) : "-",
         std::to_string(alg.simulations),
         matched ? std::to_string(cost.steps)
                 : std::string(">")
                       .append(std::to_string(ann.history.size()))
                       .append(" (never)"),
         matched ? std::to_string(cost.unique) : "-",
         matched ? fmt_double(static_cast<double>(cost.steps) /
                                  static_cast<double>(alg.simulations),
                              2) + "x"
                 : "-"});
  }
  table.print(std::cout);
  std::cout << "\nSA budget: " << sa_steps
            << " steps (HI_SA_STEPS to override).  'Steps' is the paper's "
               "cost model (the simanneal baseline simulates every step); "
               "'unique' is what a cache-assisted annealer would pay.  "
               "Simulation counts are the machine-independent cost "
               "(simulations dominate wall time at the paper's Tsim)\n"
            << "average SA/Alg.1 cost ratio to reach the same optimum "
               "(within 5%; never-matched rows enter at their full budget, "
               "a lower bound): "
            << fmt_double(sim_ratio.mean(), 2)
            << "x  (paper reports Alg.1 ~3x faster)\n";
  return 0;
}
