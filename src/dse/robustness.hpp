// hi-opt: Γ-robust multi-realization evaluation (DESIGN.md §13).
//
// The paper's Algorithm 1 certifies a design against ONE channel
// realization — a single lucky fade draw can admit a network that fails
// in the field.  Following D'Andreagiovanni & Nardin (PAPERS.md), this
// module hardens the evaluation on two independent axes:
//
//  * K channel realizations: every design point is simulated under K
//    independent channel-fade roots (Evaluator::realization), its PDR
//    reported as a mean with a two-sided confidence interval and its
//    feasibility judged by the WORST realization.  Realization 0 is the
//    nominal channel, so K = 1 is bit-identical to the legacy path, and
//    the realization-seed derivation is nested in K so growing K only
//    adds draws — the robust optimum is monotone non-decreasing in K.
//
//  * a Γ deviation budget (Bertsimas–Sim): up to Γ links may degrade
//    beyond what any simulated realization shows, each costing its
//    cell's per-link deviation (model::robust_protection_mw).  The
//    protection is added to the measured worst-case power, making the
//    robust objective  max_k P_k + protection(Γ)  — monotone in Γ.
//
// RobustBatch is the RunSim of every explorer and sweep, and the one
// batch engine: it evaluates a candidate batch under the K realization
// evaluators and folds the per-realization results into
// RobustEvaluations.  K = 1, Γ = 0 is the nominal run.  A call runs in
// three steps:
//
//   schedule — walk realization k = 0 .. K−1 and, within it, the batch
//              in request order; every design point that is neither
//              cached nor already scheduled in this call goes to the
//              pool as Evaluator::simulate_uncached (pure — no shared
//              state).  All K·n misses share one pool.
//   wait     — block until every scheduled task has finished, failed
//              ones included.
//   commit   — replay Evaluator::admit() for realization 0, then 1, …,
//              K−1, each in request order, installing the computed
//              results.
//
// A design point's randomness is seeded from its design_key() and all
// design points of one realization share its channel root (common
// random numbers), so what a task returns never depends on the thread
// that ran it.  Because commit replays the exact serial bookkeeping in
// the serial order, optima, histories, the dse.* counters and the
// store's write-through order are bit-identical at any K and any
// thread count; the net.* / des.* counters are atomic sums.  A failed
// task is reproduced serially at commit (admit(cfg, nullptr)), so the
// caller sees the exception a serial run would have seen, after the
// same counter and cache updates, and nothing is cached for it.
// threads == 0 is the serial path: no pool, each realization evaluated
// inline in request order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/exploration.hpp"
#include "exec/thread_pool.hpp"
#include "model/config.hpp"

namespace hi::dse {

/// The robustness knob threaded through ExplorationOptions, hi_campaign
/// and the store fingerprints.  The default (Γ = 0, K = 1) is inactive:
/// the explorers still fold through RobustBatch, and that fold collapses
/// bit-identically onto the nominal evaluation.
struct RobustnessOptions {
  int gamma = 0;          ///< deviation budget: links the adversary may degrade
  int realizations = 1;   ///< K independent channel realizations
  double confidence = 0.95;  ///< two-sided PDR confidence level
  [[nodiscard]] bool active() const { return gamma > 0 || realizations > 1; }
};

/// A design point's evaluation folded over K channel realizations plus
/// the Γ-protection of its cell.
struct RobustEvaluation {
  Evaluation nominal;       ///< realization 0 — the legacy single-seed result
  int realizations = 1;     ///< K
  double worst_pdr = 0.0;   ///< min over realizations: the feasibility metric
  double mean_pdr = 0.0;    ///< mean over realizations
  double pdr_lo = 0.0;      ///< CI lower bound, clamped to [0, 1]
  double pdr_hi = 0.0;      ///< CI upper bound, clamped to [0, 1]
  double worst_power_mw = 0.0;  ///< max over realizations
  double worst_nlt_s = 0.0;     ///< min over realizations
  /// Max over realizations of the averaged p95 end-to-end delay — the
  /// robust latency objective hi::pareto minimizes.  0.0 unless the
  /// evaluator ran with SimParams::collect_latency.
  double worst_p95_s = 0.0;
  double protection_mw = 0.0;   ///< model::robust_protection_mw of the cell
  /// worst_power_mw + protection_mw — the robust objective value.
  double robust_power_mw = 0.0;
};

/// Two-sided standard-normal quantile z with P(|Z| <= z) = confidence
/// (Acklam's rational approximation; |error| < 1.15e-9 — deterministic,
/// no tables).  confidence must lie in (0, 1).
[[nodiscard]] double robust_z_value(double confidence);

/// Folds one design point's K per-realization evaluations (realization
/// order, index 0 = nominal) into a RobustEvaluation under `robust`.
/// With K = 1 and Γ = 0 every field collapses bit-identically onto the
/// nominal evaluation (protection is exactly 0.0, CI bounds equal the
/// measured PDR).
[[nodiscard]] RobustEvaluation aggregate_robust(
    const model::NetworkConfig& cfg,
    const std::vector<const Evaluation*>& per_realization,
    const RobustnessOptions& robust);

/// The history row a robust run records for one design point: worst-
/// case PDR/power/lifetime in the shared fields (sim_power_mw is the
/// robust objective), Γ-protected analytic cost, CI bounds populated.
[[nodiscard]] CandidateRecord robust_record(const model::NetworkConfig& cfg,
                                            const RobustEvaluation& rev);

/// See file comment.  Owns one pool of `threads` workers when
/// threads >= 1, shared by all K realizations.  The evaluator must
/// outlive the batch and must not be used directly while a call is in
/// flight.  Inactive options are replaced by the defaults (K = 1, Γ = 0): the
/// nominal fold every explorer and sweep evaluates through.
class RobustBatch {
 public:
  RobustBatch(Evaluator& eval, int threads, RobustnessOptions robust);

  /// Evaluates every configuration under all K realizations and returns
  /// the folded results, aligned with `cfgs`.  Records on the
  /// evaluator's active registry: `dse.realizations` (K per design
  /// point requested), `exec.requests` (likewise), `exec.batches` and
  /// one `exec.batch_s` observation per call, and `exec.tasks_scheduled`
  /// per pool task.  Bit-identical at any thread count.
  [[nodiscard]] std::vector<RobustEvaluation> evaluate(
      const std::vector<model::NetworkConfig>& cfgs);

  /// Single-configuration convenience (simulated annealing's move loop).
  [[nodiscard]] RobustEvaluation evaluate_one(const model::NetworkConfig& cfg);

  [[nodiscard]] const RobustnessOptions& options() const { return robust_; }

 private:
  Evaluator& eval_;
  RobustnessOptions robust_;
  /// Index k holds eval_.realization(k), resolved at construction.
  std::vector<Evaluator*> realizations_;
  std::unique_ptr<exec::ThreadPool> pool_;  ///< null on the serial path
};

}  // namespace hi::dse
