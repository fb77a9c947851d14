// hi-opt: the one MILP level walk behind Algorithm 1, the fast-ILP
// heuristic and the PDRmin ladder (DESIGN.md §5).
//
// Each step is the paper's loop body: RunMILP proposes the whole
// alternative-optima set at the lowest remaining (Γ-protected) analytic
// power level, the caller may stop before simulating it, RunSim folds
// the level through RobustBatch (a nominal run is the K = 1, Γ = 0 fold),
// the caller updates its incumbents and may stop, and Update cuts the
// level.  The callers differ only in their stop rules and incumbents:
// Algorithm 1 stops before RunSim once its bound certifies the
// incumbent, fast-ILP after RunSim once `fast_ilp_patience` levels did
// not improve it, and pareto::ladder_front before RunSim once every rung
// is certified.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dse/milp_encoding.hpp"
#include "dse/robustness.hpp"

namespace hi::dse {

/// See file comment.  Owns the encoding, the evaluation batch and the
/// per-cell termination table for one walk.
class LevelWalk {
 public:
  /// What a caller plugs into the walk.  stop_before_sim and after_cut
  /// may be empty; stop_after_sim is where incumbents are updated.
  struct Rules {
    std::function<bool(const MilpRound&)> stop_before_sim;
    std::function<bool(const MilpRound&,
                       const std::vector<RobustEvaluation>&)>
        stop_after_sim;
    /// Called once per evaluated level, after its cut, with the number
    /// of levels evaluated so far (progress heartbeats and store syncs).
    std::function<void(int levels)> after_cut;
  };

  /// Builds the Γ-protected encoding, the K-realization batch and, for
  /// every (Tx level, routing, N) cell, its protected analytic cost and
  /// its measured-power floor at each PDRmin in `floor_pdrs`.
  LevelWalk(const model::Scenario& scenario, Evaluator& eval, int threads,
            const RobustnessOptions& robust,
            const std::vector<double>& floor_pdrs);

  /// Smallest measured-power floor (at floor_pdrs[pdr_index], protection
  /// included) among cells the MILP could still propose at or above
  /// `level_mw`; +inf when none remain.  Every feasible configuration
  /// there measures at least this much in every realization, so an
  /// incumbent strictly below it is certified.
  [[nodiscard]] double floor_from(double level_mw,
                                  std::size_t pdr_index) const;

  /// Walks levels until the MILP runs dry, a rule stops it, or
  /// `max_levels` levels were simulated; returns the number of levels
  /// simulated (a level stop_after_sim stopped on included).  A non-null
  /// `metrics` receives the inner solver's milp.* counters and, when
  /// `explorer` names the calling explorer, its `<explorer>.milp_s` /
  /// `<explorer>.sim_s` histograms and `<explorer>.cuts_added` counter,
  /// plus `dse.robust_cuts` on robust walks.
  int run(milp::Options milp, int max_levels, obs::MetricsRegistry* metrics,
          const char* explorer, const Rules& rules);

 private:
  struct Cell {
    double cost_mw;                ///< analytic P̄, Eq. (9), Γ-protected
    std::vector<double> floor_mw;  ///< aligned with floor_pdrs
  };

  RobustBatch batch_;  ///< built first: it resolves the effective Γ
  MilpEncoding encoding_;
  std::vector<Cell> cells_;
};

}  // namespace hi::dse
