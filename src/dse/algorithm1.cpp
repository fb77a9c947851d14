// hi-opt: Algorithm 1 — the paper's MILP + simulation DSE loop.
//
// Each iteration asks the MILP for *all* configurations attaining the
// current minimum of the approximate power model (RunMILP), simulates
// them (RunSim), keeps the best one meeting the reliability bound
// (Sort), and cuts the exhausted power level out of the MILP (Update).
// The loop itself is dse::LevelWalk; this file holds Algorithm 1's stop
// rule and incumbent.  Termination: the MILP runs dry, or the next
// level provably cannot beat the simulated incumbent (line 5 of the
// paper's listing).
//
// Γ-robust mode (ExplorationOptions::robust active; DESIGN.md §13):
// RunMILP proposes levels of the Γ-protected cost model, RunSim folds K
// channel realizations, feasibility is judged on the worst realization,
// and the incumbent minimizes the robust objective (worst simulated
// power + protection).  Termination stays sound because every quantity
// shifts by the same cell protection: a cell's robust objective is
// bounded below by its measured floor + its protection, which is what
// LevelWalk::floor_from compares.  The cuts remove Γ-protected levels,
// so they can never cut a level whose worst-case realization would have
// won — that is the cut-soundness argument the robust fuzz properties
// check.  A nominal run is the K = 1, Γ = 0 case of the same fold.
//
// Entry point: run_algorithm1(scenario, eval, ExplorationOptions),
// declared in dse/explorer.hpp (or Explorer::algorithm1().run(...)).
#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "dse/level_walk.hpp"
#include "model/power.hpp"

namespace hi::dse {

ExplorationResult run_algorithm1(const model::Scenario& scenario,
                                 Evaluator& eval,
                                 const ExplorationOptions& opt) {
  detail::RunScope scope(ExplorerKind::kAlgorithm1, eval, opt);
  // The kPaperAlpha discount reasons about the nominal analytic model
  // only; there is no sound robust reading of it.
  HI_REQUIRE(!opt.robust.active() || !opt.use_alpha_termination ||
                 opt.bound == TerminationBound::kSoundFloor,
             "robust Algorithm 1 supports only the kSoundFloor bound");
  LevelWalk walk(scenario, eval, scope.threads(), opt.robust, {opt.pdr_min});
  ExplorationResult res;

  LevelWalk::Rules rules;
  // ---- line 5: termination bound, checked before RunSim ----------------
  rules.stop_before_sim = [&](const MilpRound& round) {
    if (!res.feasible || !opt.use_alpha_termination) {
      return false;
    }
    if (opt.bound == TerminationBound::kSoundFloor) {
      // Every cell at or above this level — including the one the MILP
      // just proposed — must consume more than the incumbent even under
      // maximal packet loss: no further simulation wins.
      return walk.floor_from(round.power_mw, 0) > res.best_power_mw;
    }
    // kPaperAlpha, paper line 5: P̄* / α(S*, PDRmin) > P̄min with the
    // uniform loss discount applied to the incumbent's cell.
    const double p_best = model::node_power_mw(res.best);
    const double lb = res.best.app.baseline_mw +
                      opt.alpha_kappa * opt.pdr_min *
                          (p_best - res.best.app.baseline_mw);
    const double alpha = p_best / lb;
    return round.power_mw / alpha > res.best_power_mw;
  };
  // ---- lines 8-10: Sort, then update the incumbent ----------------------
  // The level's first minimum-power feasible candidate replaces the
  // incumbent unless the incumbent is strictly cheaper, so a later level
  // wins a power tie.
  rules.stop_after_sim = [&](const MilpRound& round,
                             const std::vector<RobustEvaluation>& revs) {
    std::size_t pick = revs.size();
    for (std::size_t i = 0; i < revs.size(); ++i) {
      res.history.push_back(robust_record(round.candidates[i], revs[i]));
      if (revs[i].worst_pdr >= opt.pdr_min &&
          (pick == revs.size() ||
           revs[i].robust_power_mw < revs[pick].robust_power_mw)) {
        pick = i;
      }
    }
    if (pick < revs.size() &&
        (!res.feasible || res.best_power_mw >= revs[pick].robust_power_mw)) {
      detail::set_incumbent(res, round.candidates[pick], revs[pick]);
    }
    return false;
  };
  rules.after_cut = [&](int levels) { scope.progress(levels, res); };

  res.iterations = walk.run(opt.milp, opt.budget >= 0 ? opt.budget : 10'000,
                            &scope.registry(), "alg1", rules);
  scope.finish(res);
  return res;
}

}  // namespace hi::dse
