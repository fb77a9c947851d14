// hi-opt: frontier sweep drivers (DESIGN.md §14).
//
// Two ways to produce a front for a scenario, sharing one Evaluator
// (and therefore its cache, its store warm-start, and its counters):
//
//  * exhaustive_front — batch-evaluates every feasible configuration
//    and keeps the non-dominated set.  The definitive exact front, and
//    the oracle the tier-1 differential test holds the ladder against.
//
//  * ladder_front — a stop rule on Algorithm 1's level walk
//    (dse/level_walk.hpp), for all rungs at once: ONE MilpEncoding
//    proposes levels in ascending analytic power, each level's whole
//    alternative-optima pool is batch-evaluated once, every rung updates
//    its incumbent from the shared evaluations, and the level is cut.
//    A rung closes when the sound measured-power
//    floor of every un-proposed cell exceeds its incumbent — the same
//    certificate Algorithm 1 uses, per rung.  Each front point
//    therefore costs at most one MILP solve plus simulations that the
//    other rungs (or a warm store) already paid for.
//
//    Incumbents are chosen by lex_before (power, then PDR, then p95,
//    then design_key), so a certified rung optimum is globally
//    non-dominated: any dominator would need PDR >= the rung bound and
//    power <= the optimum, hence be an explored candidate ordered
//    before the lexicographic minimum — a contradiction.  The emitted
//    front is the non-dominated subset of the certified rung optima.
//
// RobustnessOptions compose: candidates are always folded through
// dse::RobustBatch; when active, objectives become (robust power,
// worst-case PDR, worst-realization p95), the MILP proposes Γ-protected
// levels, and the floor certificate carries the same protection — so
// Γ-robust fronts fall out of the identical control flow.  Inactive
// options are the K = 1, Γ = 0 fold, bit-identical to plain evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/robustness.hpp"
#include "milp/solver.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"
#include "pareto/front.hpp"

namespace hi::pareto {

/// Sweep controls shared by both drivers.
struct SweepOptions {
  /// PDRmin rungs of the ladder (any order; deduplicated and sorted
  /// ascending internally).  Also used by exhaustive_front to report
  /// per-rung optima.  Default: the paper's Fig. 3 sweep range.
  std::vector<double> pdr_ladder = {0.50, 0.60, 0.70, 0.80,
                                    0.90, 0.95, 0.99};
  /// Worker threads for batch evaluation (0 = serial; results are
  /// bit-identical at any value, see dse::RobustBatch).
  int threads = 0;
  /// Γ / K / confidence; inactive by default (see file comment).
  dse::RobustnessOptions robust{};
  /// Inner MILP solver options (ladder_front only).
  milp::Options milp{};
  /// ε-dominance knob for the emitted front.
  FrontOptions front{};
  /// Safety valve on MILP rounds (ladder_front only).
  int max_rounds = 10'000;
  /// Observability registry (null = not observed; `pareto.*` counters).
  obs::MetricsRegistry* metrics = nullptr;
  /// Called after each completed MILP round (ladder_front) or once after
  /// the sweep's evaluation (exhaustive_front) with the rounds done so
  /// far.  The hi_pareto CLI syncs its store here — which makes this the
  /// crash-injection point the resume-after-kill smoke drives.
  std::function<void(int rounds)> progress;
};

/// Per-rung outcome: the certified minimum-power point meeting the
/// rung's PDR bound (lex_before tie-break), or infeasible.
struct RungResult {
  double pdr_min = 0.0;
  bool feasible = false;
  FrontPoint best{};
};

/// Outcome of a sweep.
struct SweepResult {
  /// The non-dominated set, lex_before-sorted.  exhaustive_front: over
  /// every feasible configuration; ladder_front: over the certified
  /// rung optima (a subset of the exhaustive front — the differential
  /// test pins that).
  std::vector<FrontPoint> front;
  std::vector<RungResult> rungs;  ///< ascending pdr_min
  std::uint64_t evaluated = 0;    ///< distinct design points evaluated
  std::uint64_t simulations = 0;  ///< fresh simulations paid (delta)
  std::uint64_t store_hits = 0;   ///< simulations served by a warm store
  std::uint64_t milp_rounds = 0;  ///< ladder only: levels proposed
  int milp_bnb_nodes = 0;         ///< ladder only
  bool complete = true;  ///< false only when max_rounds stopped the ladder
  double wall_time_s = 0.0;
};

/// See file comment.
[[nodiscard]] SweepResult exhaustive_front(const model::Scenario& scenario,
                                           dse::Evaluator& eval,
                                           const SweepOptions& opt = {});

/// See file comment.
[[nodiscard]] SweepResult ladder_front(const model::Scenario& scenario,
                                       dse::Evaluator& eval,
                                       const SweepOptions& opt = {});

}  // namespace hi::pareto
