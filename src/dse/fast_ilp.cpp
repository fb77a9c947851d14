// hi-opt: the fast ILP-based heuristic explorer (D'Andreagiovanni &
// Nardin, "A fast ILP-based Heuristic for the robust design of Body
// Wireless Sensor Networks", ported onto this code base).
//
// Structure: Algorithm 1's ascending-level walk (dse::LevelWalk) —
// RunMILP proposes all configurations at the minimum (Γ-protected)
// analytic power level, RunSim evaluates them, a cut removes the
// exhausted level — but the exactness machinery is replaced by a
// patience rule: once a feasible incumbent exists, the search stops
// after `fast_ilp_patience` consecutive levels that fail to improve it.
// The analytic cost model orders levels well in practice, so the first
// feasible level is usually optimal or near-optimal, and the heuristic
// skips the long tail of levels Algorithm 1's sound floor cannot prune —
// that is where its speed comes from, and why it is NOT exact.
// EXPERIMENTS.md documents the measured optimality gap; bench_robust_dse
// gates it.
//
// Entry point: run_fast_ilp(scenario, eval, ExplorationOptions),
// declared in dse/explorer.hpp (or Explorer::fast_ilp().run(...)).
#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "dse/level_walk.hpp"

namespace hi::dse {

ExplorationResult run_fast_ilp(const model::Scenario& scenario,
                               Evaluator& eval,
                               const ExplorationOptions& opt) {
  detail::RunScope scope(ExplorerKind::kFastIlp, eval, opt);
  HI_REQUIRE(opt.fast_ilp_patience >= 1,
             "fast_ilp_patience must be >= 1, got " << opt.fast_ilp_patience);
  LevelWalk walk(scenario, eval, opt.threads, opt.robust, {});
  ExplorationResult res;
  int stale_levels = 0;  // levels since the incumbent last improved

  LevelWalk::Rules rules;
  rules.stop_after_sim = [&](const MilpRound& round,
                             const std::vector<RobustEvaluation>& revs) {
    bool improved = false;
    for (std::size_t i = 0; i < revs.size(); ++i) {
      improved |= detail::offer(res, round.candidates[i], revs[i],
                                opt.pdr_min);
    }
    // The patience rule — the heuristic's entire termination logic.
    if (res.feasible) {
      stale_levels = improved ? 0 : stale_levels + 1;
    }
    return res.feasible && stale_levels >= opt.fast_ilp_patience;
  };
  rules.after_cut = [&](int levels) { scope.progress(levels, res); };

  res.iterations = walk.run(opt.milp, opt.budget >= 0 ? opt.budget : 10'000,
                            &scope.registry(), "fast_ilp", rules);
  scope.finish(res);
  return res;
}

}  // namespace hi::dse
