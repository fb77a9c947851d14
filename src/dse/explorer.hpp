// hi-opt: the unified explorer front end.
//
// The four exploration strategies — Algorithm 1 (MILP + simulation),
// exhaustive search, simulated annealing and the fast-ILP heuristic —
// consume one options bag, ExplorationOptions; the knobs a strategy does
// not use are simply ignored, so one options value can drive a fair
// side-by-side comparison.  Explorer is a small value type that names a
// strategy and dispatches run(); benches iterate Explorer::all() instead
// of hand-rolling one call site per strategy.
//
// Every strategy evaluates through RobustBatch (a nominal run is the
// K = 1, Γ = 0 fold), and the two MILP-driven ones — Algorithm 1 and
// fast-ILP — are stop rules on the one level walk in dse/level_walk.hpp.
//
// Observability: every run is wrapped in a detail::RunScope that
// installs the active obs::MetricsRegistry into the evaluator (the
// caller's via ExplorationOptions::metrics, the evaluator's own, or a
// private one — in that order), snapshots it before and after, and
// stores the delta in ExplorationResult::metrics.  The legacy scalar
// fields (`simulations`, `milp_bnb_nodes`) are populated from the same
// counters, so they always agree with the snapshot bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/exploration.hpp"
#include "dse/robustness.hpp"
#include "milp/solver.hpp"
#include "model/design_space.hpp"
#include "model/power.hpp"
#include "obs/metrics.hpp"

namespace hi::dse {

/// The four exploration strategies.
enum class ExplorerKind {
  kAlgorithm1,  ///< the paper's MILP + simulation loop
  kExhaustive,  ///< simulate the whole feasible design space
  kAnnealing,   ///< simulated-annealing baseline
  kFastIlp,     ///< fast ILP-based heuristic (D'Andreagiovanni & Nardin):
                ///< Algorithm 1's loop with a patience cutoff instead of
                ///< the sound floor — not exact, benchmarked against it
};

[[nodiscard]] const char* to_string(ExplorerKind kind);

/// Which early-termination bound Algorithm 1 uses (line 5 of the
/// paper's listing).
enum class TerminationBound {
  /// Per-cell measured-power floors (model::measured_power_floor_mw,
  /// delivery accounting against the simulator's energy metering): stop
  /// only when *every* configuration the MILP could still propose
  /// provably measures more than the incumbent.  Guaranteed to return
  /// the exhaustive-search optimum (cross-checked by the test sweeps and
  /// the hi::check fuzzer).
  kSoundFloor,
  /// The paper's literal rule: α = P̄(S*) / P̄lb(S*) with the uniform
  /// loss discount P̄lb = Pbl + PDRmin (P̄ - Pbl), applied to the
  /// incumbent's own cell.  Terminates much earlier (reproduces the
  /// ~87% simulation saving) but is *not* sound when a cheap lossy
  /// configuration hides on a pruned level — e.g. a CSMA mesh whose
  /// relay storms collide, whose simulated power collapses far below
  /// the NreTx-scaled analytic estimate.  bench_alg1_vs_exhaustive
  /// measures both modes.
  kPaperAlpha,
};

/// A progress heartbeat handed to ExplorationOptions::progress.
struct ProgressInfo {
  ExplorerKind kind{};            ///< which explorer is reporting
  int iteration = 0;              ///< explorer-specific outer iteration
  std::uint64_t simulations = 0;  ///< distinct design points so far
  bool feasible = false;          ///< an incumbent meeting PDRmin exists
  double best_power_mw = 0.0;     ///< incumbent power (valid if feasible)
};

/// Progress callback.  Called from the exploring thread between
/// evaluation rounds — cheap work only; never re-enter the evaluator.
using ProgressFn = std::function<void(const ProgressInfo&)>;

/// The one options bag all explorers consume.  Strategy-specific knobs
/// are grouped and ignored by the other strategies.
struct ExplorationOptions {
  double pdr_min = 0.9;  ///< PDRmin, in [0,1]

  /// Outer-iteration budget; -1 = the strategy's default (Algorithm 1:
  /// 10'000 rounds, a safety valve; annealing: 400 steps).  Exhaustive
  /// search always sweeps the whole space and ignores it.
  int budget = -1;

  /// Worker threads of the run's RobustBatch pool (0 = serial, the
  /// default; negative is rejected).  Results, incumbents, and the
  /// dse.* counters are bit-identical at any value.
  int threads = 0;

  /// Randomness of the annealer's moves and acceptance (the other
  /// strategies are deterministic and ignore it).
  std::uint64_t seed = 7;

  // --- Algorithm 1 ---------------------------------------------------
  bool use_alpha_termination = true;  ///< ablation switch (off = run the
                                      ///< MILP completely dry)
  TerminationBound bound = TerminationBound::kSoundFloor;
  /// Loss-discount safety factor of the kPaperAlpha bound; smaller is
  /// more conservative (more simulations).  See
  /// model::power_lower_bound_mw.  kSoundFloor ignores it.
  double alpha_kappa = model::kLossDiscountKappa;
  /// Inner MILP solver knobs.  Options::metrics is overridden with the
  /// run's active registry so milp.* counters land in the snapshot.
  milp::Options milp{};

  // --- simulated annealing -------------------------------------------
  double t_start_mw = 2.0;  ///< initial temperature (energy is in mW;
                            ///< hot enough to cross the star->mesh
                            ///< power barrier early on)
  double t_end_mw = 0.005;  ///< final temperature
  double penalty_mw_per_pdr = 50.0;  ///< infeasibility penalty slope

  // --- fast ILP heuristic --------------------------------------------
  /// MILP levels the fast-ILP explorer keeps climbing past a feasible
  /// incumbent without improvement before it stops (>= 1).  Larger is
  /// closer to Algorithm 1's exactness, smaller is faster.
  int fast_ilp_patience = 2;

  // --- robustness (DESIGN.md §13) ------------------------------------
  /// Γ / multi-realization knobs consumed by every explorer.  Inactive
  /// (the default) is the K = 1, Γ = 0 fold, bit-identical to plain
  /// evaluation; active runs judge feasibility on the worst realization
  /// and optimize worst-case power + Γ-protection.  Robust Algorithm 1
  /// supports only the kSoundFloor termination bound.
  RobustnessOptions robust{};

  // --- observability -------------------------------------------------
  /// Registry the run records into; installed into the evaluator for
  /// the duration of the run (and restored afterwards).  Null = use the
  /// evaluator's own registry, or a run-private one if it has none.
  /// Either way ExplorationResult::metrics carries the run's delta.
  obs::MetricsRegistry* metrics = nullptr;
  ProgressFn progress;  ///< empty = no progress reporting
};

/// Runs Algorithm 1 on `scenario`, evaluating candidates through `eval`.
[[nodiscard]] ExplorationResult run_algorithm1(const model::Scenario& scenario,
                                               Evaluator& eval,
                                               const ExplorationOptions& opt);

/// Runs exhaustive search (budget is ignored; the whole space is swept).
[[nodiscard]] ExplorationResult run_exhaustive(const model::Scenario& scenario,
                                               Evaluator& eval,
                                               const ExplorationOptions& opt);

/// Runs simulated annealing.  Simulations are counted via the evaluator
/// (revisited states hit the cache and are not recounted, which favors
/// the baseline).
[[nodiscard]] ExplorationResult run_annealing(const model::Scenario& scenario,
                                              Evaluator& eval,
                                              const ExplorationOptions& opt);

/// Runs the fast ILP-based heuristic (D'Andreagiovanni & Nardin's
/// WBAN-design heuristic ported onto this code base): Algorithm 1's
/// ascending-MILP-level loop, but it stops `fast_ilp_patience` levels
/// after the feasible incumbent last improved instead of waiting for
/// the sound power floor.  Orders of magnitude fewer simulations on
/// deep level stacks; NOT exact — EXPERIMENTS.md documents the
/// optimality gap against (robust) Algorithm 1.
[[nodiscard]] ExplorationResult run_fast_ilp(const model::Scenario& scenario,
                                             Evaluator& eval,
                                             const ExplorationOptions& opt);

/// A named exploration strategy; run() dispatches to the matching
/// run_* function.  Copyable value type.
class Explorer {
 public:
  [[nodiscard]] static Explorer algorithm1() {
    return Explorer(ExplorerKind::kAlgorithm1);
  }
  [[nodiscard]] static Explorer exhaustive() {
    return Explorer(ExplorerKind::kExhaustive);
  }
  [[nodiscard]] static Explorer annealing() {
    return Explorer(ExplorerKind::kAnnealing);
  }
  [[nodiscard]] static Explorer fast_ilp() {
    return Explorer(ExplorerKind::kFastIlp);
  }
  /// All strategies, in the order the paper compares them (the fast-ILP
  /// heuristic, which the paper does not have, comes last).
  [[nodiscard]] static std::vector<Explorer> all() {
    return {algorithm1(), exhaustive(), annealing(), fast_ilp()};
  }

  [[nodiscard]] ExplorerKind kind() const { return kind_; }
  [[nodiscard]] const char* name() const { return to_string(kind_); }

  [[nodiscard]] ExplorationResult run(const model::Scenario& scenario,
                                      Evaluator& eval,
                                      const ExplorationOptions& opt = {}) const;

 private:
  explicit Explorer(ExplorerKind kind) : kind_(kind) {}
  ExplorerKind kind_;
};

namespace detail {

/// RAII harness shared by the run_* functions: validates the
/// common options, resolves the active registry (see the file comment)
/// and installs it into the evaluator, snapshots the metrics baseline,
/// and on finish() fills the result's simulations / wall_time_s /
/// metrics / milp_bnb_nodes fields from the same counters.  The
/// destructor restores the evaluator's previous registry.
class RunScope {
 public:
  RunScope(ExplorerKind kind, Evaluator& eval, const ExplorationOptions& opt);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// The registry this run records into; never null.
  [[nodiscard]] obs::MetricsRegistry& registry() const { return *registry_; }

  /// Invokes the caller's progress callback (no-op when unset).
  void progress(int iteration, const ExplorationResult& res) const;

  /// Fills the run-summary fields of `res`; call exactly once, last.
  void finish(ExplorationResult& res);

 private:
  ExplorerKind kind_;
  Evaluator& eval_;
  const ExplorationOptions& opt_;
  std::unique_ptr<obs::MetricsRegistry> owned_;  ///< fallback registry
  obs::MetricsRegistry* registry_ = nullptr;
  obs::MetricsRegistry* previous_ = nullptr;
  bool installed_ = false;
  obs::Snapshot start_;
  std::uint64_t sims0_ = 0;
  double t0_s_ = 0.0;  ///< steady-clock start, in seconds
};

/// Makes (cfg, rev) the incumbent of `res`.
void set_incumbent(ExplorationResult& res, const model::NetworkConfig& cfg,
                   const RobustEvaluation& rev);

/// Appends (cfg, rev) to res.history and makes it the incumbent when it
/// meets `pdr_min` and is strictly cheaper than the current one (the
/// first of equal-power candidates wins).  Returns true when it did.
bool offer(ExplorationResult& res, const model::NetworkConfig& cfg,
           const RobustEvaluation& rev, double pdr_min);

}  // namespace detail

}  // namespace hi::dse
