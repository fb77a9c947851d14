#include "check/properties.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <utility>

#include "check/invariants.hpp"
#include "check/lp_oracle.hpp"
#include "check/milp_oracle.hpp"
#include "check/robust_oracle.hpp"
#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"
#include "lp/simplex.hpp"
#include "milp/solver.hpp"
#include "model/power.hpp"
#include "pareto/sweep.hpp"

namespace hi::check {

namespace {

/// Tolerance granted to the floating-point solvers against the exact
/// oracles.  The instances are tiny and dyadic, so this is generous.
constexpr double kSolverTol = 1e-6;

template <typename... Parts>
void fail(std::vector<std::string>& out, Parts&&... parts) {
  std::ostringstream oss;
  (oss << ... << parts);
  out.push_back(oss.str());
}

/// A double exactly representable as k/16 with k uniform in
/// [16*lo, 16*hi] — Rational::from_double round-trips it exactly.
double dyadic16(Rng& rng, double lo, double hi) {
  const auto klo = static_cast<std::int64_t>(std::lround(lo * 16.0));
  const auto khi = static_cast<std::int64_t>(std::lround(hi * 16.0));
  return static_cast<double>(rng.uniform_int(klo, khi)) / 16.0;
}

lp::Sense random_sense(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.2) return lp::Sense::kEqual;
  return u < 0.6 ? lp::Sense::kLessEqual : lp::Sense::kGreaterEqual;
}

/// Sparse row over `nv` variables with 1..nv distinct terms.
std::vector<lp::Term> random_row(Rng& rng, int nv) {
  std::vector<int> vars(static_cast<std::size_t>(nv));
  for (int v = 0; v < nv; ++v) vars[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = vars.size(); i > 1; --i) {
    std::swap(vars[i - 1], vars[rng.uniform_index(i)]);
  }
  const int terms = static_cast<int>(rng.uniform_int(1, nv));
  std::vector<lp::Term> row;
  for (int t = 0; t < terms; ++t) {
    double c = dyadic16(rng, -2.0, 2.0);
    if (c == 0.0) c = 1.0;  // keep every term meaningful
    row.push_back(lp::Term{vars[static_cast<std::size_t>(t)], c});
  }
  return row;
}

std::vector<std::int64_t> rounded_assignment(const std::vector<int>& vars,
                                             const std::vector<double>& x) {
  std::vector<std::int64_t> a;
  a.reserve(vars.size());
  for (int v : vars) {
    a.push_back(std::llround(x[static_cast<std::size_t>(v)]));
  }
  return a;
}

}  // namespace

lp::Problem random_bounded_lp(Rng& rng, int max_vars) {
  lp::Problem p;
  const int nv = static_cast<int>(rng.uniform_int(2, max_vars));
  for (int v = 0; v < nv; ++v) {
    const double lo = dyadic16(rng, -3.0, 0.0);
    const double width = dyadic16(rng, 0.0, 3.0);  // 0 => fixed variable
    p.add_variable(lo, lo + width, dyadic16(rng, -2.0, 2.0));
  }
  p.set_objective(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                     : lp::Objective::kMaximize);
  const int rows = static_cast<int>(rng.uniform_int(1, nv + 1));
  for (int r = 0; r < rows; ++r) {
    p.add_constraint(random_row(rng, nv), random_sense(rng),
                     dyadic16(rng, -3.0, 3.0));
  }
  return p;
}

milp::Model random_small_milp(Rng& rng) {
  milp::Model m;
  const int nb = static_cast<int>(rng.uniform_int(2, 4));
  for (int v = 0; v < nb; ++v) {
    m.add_binary(dyadic16(rng, -2.0, 2.0));
  }
  if (rng.bernoulli(0.5)) {
    const int ni = static_cast<int>(rng.uniform_int(1, 2));
    for (int v = 0; v < ni; ++v) {
      const auto lo = static_cast<double>(rng.uniform_int(-2, 0));
      const auto up = lo + static_cast<double>(rng.uniform_int(1, 4));
      m.add_integer(lo, up, dyadic16(rng, -2.0, 2.0));
    }
  }
  if (rng.bernoulli(0.5)) {
    const int nc = static_cast<int>(rng.uniform_int(1, 2));
    for (int v = 0; v < nc; ++v) {
      const double lo = dyadic16(rng, -2.0, 0.0);
      m.add_continuous(lo, lo + dyadic16(rng, 0.5, 3.0),
                       dyadic16(rng, -2.0, 2.0));
    }
  }
  m.set_objective(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                     : lp::Objective::kMaximize);
  const int nv = m.num_variables();
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < rows; ++r) {
    m.add_constraint(random_row(rng, nv), random_sense(rng),
                     dyadic16(rng, -4.0, 6.0));
  }
  return m;
}

milp::Model random_pool_milp(Rng& rng) {
  milp::Model m;
  const int nb = static_cast<int>(rng.uniform_int(3, 5));
  for (int v = 0; v < nb; ++v) {
    // Costs from a 5-value set: ties (and so alternative optima) are the
    // point of this generator.
    m.add_binary(0.5 * static_cast<double>(rng.uniform_int(-2, 2)));
  }
  if (rng.bernoulli(0.3)) {
    m.add_continuous(0.0, 2.0, dyadic16(rng, -1.0, 1.0));
  }
  m.set_objective(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                     : lp::Objective::kMaximize);
  // A cardinality-style row keeps most instances feasible while still
  // cutting off part of the hypercube.
  std::vector<lp::Term> card;
  for (int v = 0; v < nb; ++v) card.push_back(lp::Term{v, 1.0});
  m.add_constraint(std::move(card),
                   rng.bernoulli(0.5) ? lp::Sense::kLessEqual
                                      : lp::Sense::kGreaterEqual,
                   static_cast<double>(rng.uniform_int(1, nb - 1)));
  if (rng.bernoulli(0.5)) {
    m.add_constraint(random_row(rng, m.num_variables()), random_sense(rng),
                     dyadic16(rng, -2.0, 4.0));
  }
  return m;
}

milp::Model random_tied_pool_milp(Rng& rng) {
  milp::Model m;
  const int nb = static_cast<int>(rng.uniform_int(3, 5));
  // One shared cost for every selectable binary: with the symmetric
  // cardinality row below, every k-subset is optimal, so the optimal set
  // has C(nb, k) >= nb members before the free bit doubles it.
  const double cost = 0.5 * static_cast<double>(rng.uniform_int(-2, 2));
  for (int v = 0; v < nb; ++v) {
    m.add_binary(cost);
  }
  // A zero-cost unconstrained binary mirrors the DSE encoding's MAC bit
  // (absent from Eq. (9)): it doubles every optimum.
  m.add_binary(0.0);
  m.set_objective(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                     : lp::Objective::kMaximize);
  std::vector<lp::Term> card;
  for (int v = 0; v < nb; ++v) card.push_back(lp::Term{v, 1.0});
  m.add_constraint(std::move(card), lp::Sense::kEqual,
                   static_cast<double>(rng.uniform_int(1, nb - 1)));
  return m;
}

std::vector<std::string> check_lp_against_oracle(const lp::Problem& p) {
  std::vector<std::string> out;
  const LpOracleResult oracle = solve_lp_exact(p);
  const lp::Solution sol = lp::solve_simplex(p);
  if (oracle.status == OracleStatus::kInfeasible) {
    if (sol.status != lp::Status::kInfeasible) {
      fail(out, "oracle says infeasible but simplex returned ",
           lp::to_string(sol.status));
    }
    return out;
  }
  if (sol.status != lp::Status::kOptimal) {
    fail(out, "oracle optimum ", oracle.objective.to_string(),
         " but simplex returned ", lp::to_string(sol.status));
    return out;
  }
  const double exact = oracle.objective.to_double();
  if (std::fabs(sol.objective - exact) > kSolverTol) {
    fail(out, "simplex objective ", sol.objective,
         " differs from exact optimum ", oracle.objective.to_string(), " = ",
         exact);
  }
  if (!p.is_feasible(sol.x, kSolverTol)) {
    fail(out, "simplex primal point violates the constraints");
  }
  if (std::fabs(p.objective_value(sol.x) - sol.objective) > kSolverTol) {
    fail(out, "simplex objective ", sol.objective,
         " does not match its own primal point value ",
         p.objective_value(sol.x));
  }
  return out;
}

std::vector<std::string> check_milp_against_oracle(const milp::Model& m) {
  std::vector<std::string> out;
  const MilpOracleResult oracle = solve_milp_exact(m);
  const milp::Solution sol = milp::solve(m);
  if (oracle.status == OracleStatus::kInfeasible) {
    if (sol.status != lp::Status::kInfeasible) {
      fail(out, "oracle says infeasible but milp::solve returned ",
           lp::to_string(sol.status));
    }
    return out;
  }
  if (sol.status != lp::Status::kOptimal) {
    fail(out, "oracle optimum ", oracle.objective.to_string(),
         " but milp::solve returned ", lp::to_string(sol.status));
    return out;
  }
  const double exact = oracle.objective.to_double();
  if (std::fabs(sol.objective - exact) > kSolverTol) {
    fail(out, "milp::solve objective ", sol.objective,
         " differs from exact optimum ", oracle.objective.to_string(), " = ",
         exact);
  }
  const std::vector<int> ints = m.integral_variables();
  for (int v : ints) {
    const double xv = sol.x[static_cast<std::size_t>(v)];
    if (std::fabs(xv - std::round(xv)) > 1e-5) {
      fail(out, "milp::solve variable ", v, " = ", xv, " is not integral");
    }
  }
  const std::vector<std::int64_t> a = rounded_assignment(ints, sol.x);
  if (std::find(oracle.optimal_assignments.begin(),
                oracle.optimal_assignments.end(),
                a) == oracle.optimal_assignments.end()) {
    fail(out,
         "milp::solve's integral assignment is not in the oracle's optimal "
         "set (",
         oracle.optimal_assignments.size(), " assignments)");
  }
  return out;
}

std::vector<std::string> check_pool_against_enumerator(const milp::Model& m) {
  std::vector<std::string> out;
  const MilpOracleResult oracle = solve_milp_exact(m);
  const milp::Pool pool = milp::solve_all_optimal(m);
  if (oracle.status == OracleStatus::kInfeasible) {
    if (pool.status != lp::Status::kInfeasible) {
      fail(out, "oracle says infeasible but the pool returned ",
           lp::to_string(pool.status));
    }
    return out;
  }
  if (pool.status != lp::Status::kOptimal) {
    fail(out, "oracle optimum ", oracle.objective.to_string(),
         " but the pool returned ", lp::to_string(pool.status));
    return out;
  }
  if (pool.truncated) {
    fail(out, "pool truncated on a small instance (",
         pool.solutions.size(), " solutions)");
  }
  if (std::fabs(pool.objective - oracle.objective.to_double()) > kSolverTol) {
    fail(out, "pool objective ", pool.objective,
         " differs from exact optimum ", oracle.objective.to_string());
  }
  const std::vector<int> ints = m.integral_variables();
  std::vector<std::vector<std::int64_t>> got;
  got.reserve(pool.solutions.size());
  for (const std::vector<double>& x : pool.solutions) {
    got.push_back(rounded_assignment(ints, x));
  }
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    fail(out, "pool contains duplicate binary assignments");
  }
  std::vector<std::vector<std::int64_t>> want = oracle.optimal_assignments;
  std::sort(want.begin(), want.end());
  if (got != want) {
    fail(out, "pool enumerated ", got.size(),
         " optimal assignments but the oracle found ", want.size(),
         " (sets differ)");
  }
  return out;
}

std::vector<std::string> check_tied_pool_completeness(const milp::Model& m) {
  std::vector<std::string> out = check_pool_against_enumerator(m);
  if (!out.empty()) {
    return out;
  }
  // The set equality above is vacuous if the tie never materialized —
  // assert the construction actually produced alternative optima.
  const milp::Pool pool = milp::solve_all_optimal(m);
  if (pool.status == lp::Status::kOptimal && pool.solutions.size() < 2) {
    fail(out, "tied-cost instance yielded ", pool.solutions.size(),
         " optimum; the generator guarantees at least 2");
  }
  return out;
}

std::vector<std::string> check_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min) {
  std::vector<std::string> out;
  dse::ExplorationOptions opt;
  opt.pdr_min = pdr_min;
  opt.bound = dse::TerminationBound::kSoundFloor;
  const dse::ExplorationResult ex = dse::run_exhaustive(sc, eval, opt);
  eval.reset_counters();  // the cache stays; Algorithm 1 rides it
  const dse::ExplorationResult a1 = dse::run_algorithm1(sc, eval, opt);
  if (ex.feasible != a1.feasible) {
    fail(out, "feasibility disagrees at PDRmin ", pdr_min, ": exhaustive ",
         ex.feasible, ", algorithm1 ", a1.feasible);
    return out;
  }
  if (ex.feasible) {
    if (a1.best_power_mw != ex.best_power_mw) {
      fail(out, "optimal power disagrees at PDRmin ", pdr_min,
           ": exhaustive ", ex.best_power_mw, " mW (",
           ex.best.label(), "), algorithm1 ", a1.best_power_mw, " mW (",
           a1.best.label(), ")");
    }
    if (a1.best_pdr < pdr_min) {
      fail(out, "algorithm1 incumbent PDR ", a1.best_pdr,
           " misses PDRmin ", pdr_min);
    }
  }
  if (a1.simulations > ex.simulations) {
    fail(out, "algorithm1 needed ", a1.simulations,
         " simulations, more than exhaustive's ", ex.simulations);
  }
  return out;
}

std::vector<std::string> check_pdrmin_monotone(
    const model::Scenario& sc, dse::Evaluator& eval,
    const std::vector<double>& pdr_mins) {
  std::vector<std::string> out;
  bool was_infeasible = false;
  double prev_power = 0.0;
  double prev_target = 0.0;
  bool have_prev = false;
  for (const double target : pdr_mins) {
    if (have_prev && target < prev_target) {
      fail(out, "pdr_mins must be ascending");
      return out;
    }
    dse::ExplorationOptions opt;
    opt.pdr_min = target;
    const dse::ExplorationResult res = dse::run_exhaustive(sc, eval, opt);
    if (was_infeasible && res.feasible) {
      fail(out, "feasible at PDRmin ", target,
           " after infeasible at a lower target");
    }
    if (res.feasible) {
      if (have_prev && res.best_power_mw < prev_power - 1e-12) {
        fail(out, "optimal power dropped from ", prev_power, " mW to ",
             res.best_power_mw, " mW when PDRmin rose from ", prev_target,
             " to ", target);
      }
      prev_power = res.best_power_mw;
      prev_target = target;
      have_prev = true;
    } else {
      was_infeasible = true;
    }
  }
  return out;
}

std::vector<std::string> check_power_cuts_monotone(const model::Scenario& sc) {
  std::vector<std::string> out;
  dse::MilpEncoding enc(sc);
  const std::vector<double> levels = enc.achievable_power_levels();
  double prev = -1.0;
  for (int round = 0; round < 5; ++round) {
    const dse::MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) {
      break;  // cuts exhausted the grid — monotone by definition
    }
    if (round > 0 && r.power_mw <= prev) {
      fail(out, "round ", round, " optimum ", r.power_mw,
           " mW did not rise above the cut level ", prev, " mW");
    }
    const bool on_grid =
        std::any_of(levels.begin(), levels.end(), [&](double lvl) {
          return std::fabs(lvl - r.power_mw) <= 1e-9 * (1.0 + lvl);
        });
    if (!on_grid) {
      fail(out, "round ", round, " optimum ", r.power_mw,
           " mW is not an achievable power level");
    }
    if (r.candidates.empty()) {
      fail(out, "round ", round, " returned an optimum without candidates");
    }
    prev = r.power_mw;
    enc.add_power_cut_above(r.power_mw);
  }
  return out;
}

std::vector<std::string> check_no_good_cut_monotone(milp::Model m) {
  std::vector<std::string> out;
  const std::vector<int> bins = m.binary_variables();
  if (bins.empty()) return out;
  const bool maximize = m.lp().objective() == lp::Objective::kMaximize;
  milp::Solution prev = milp::solve(m);
  for (int round = 0; round < 3 && prev.status == lp::Status::kOptimal;
       ++round) {
    const std::vector<std::int64_t> cut_pattern =
        rounded_assignment(bins, prev.x);
    std::vector<double> assignment;
    assignment.reserve(bins.size());
    for (int v : bins) {
      assignment.push_back(prev.x[static_cast<std::size_t>(v)]);
    }
    m.add_no_good_cut(bins, assignment);
    const milp::Solution next = milp::solve(m);
    if (next.status == lp::Status::kInfeasible) {
      break;  // the cut emptied the binary space — cannot improve
    }
    if (next.status != lp::Status::kOptimal) {
      fail(out, "solve after no-good cut returned ",
           lp::to_string(next.status));
      break;
    }
    const double gain = maximize ? next.objective - prev.objective
                                 : prev.objective - next.objective;
    if (gain > kSolverTol) {
      fail(out, "objective improved from ", prev.objective, " to ",
           next.objective, " after a no-good cut");
    }
    if (rounded_assignment(bins, next.x) == cut_pattern) {
      fail(out, "solution after a no-good cut repeats the cut assignment");
    }
    prev = next;
  }
  return out;
}

std::vector<std::string> check_thread_determinism(const ScenarioSpec& spec,
                                                  int threads) {
  std::vector<std::string> out;
  const auto run_at = [&](int t) {
    dse::Evaluator eval(spec.settings);
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.8;
    opt.threads = t;
    return dse::run_exhaustive(spec.scenario, eval, opt);
  };
  const dse::ExplorationResult serial = run_at(0);
  const dse::ExplorationResult par = run_at(threads);
  if (serial.feasible != par.feasible) {
    fail(out, "feasibility differs at ", threads, " threads");
  }
  if (serial.feasible && serial.best.design_key() != par.best.design_key()) {
    fail(out, "best design differs at ", threads, " threads: ",
         serial.best.label(), " vs ", par.best.label());
  }
  // Exact double comparisons: determinism is bit-identical or broken.
  if (serial.best_power_mw != par.best_power_mw ||
      serial.best_pdr != par.best_pdr || serial.best_nlt_s != par.best_nlt_s) {
    fail(out, "best metrics differ at ", threads, " threads");
  }
  if (serial.simulations != par.simulations) {
    fail(out, "simulation counts differ at ", threads, " threads: ",
         serial.simulations, " vs ", par.simulations);
  }
  if (serial.history.size() != par.history.size()) {
    fail(out, "history lengths differ at ", threads, " threads");
  } else {
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
      const dse::CandidateRecord& a = serial.history[i];
      const dse::CandidateRecord& b = par.history[i];
      if (a.cfg.design_key() != b.cfg.design_key() ||
          a.sim_pdr != b.sim_pdr || a.sim_power_mw != b.sim_power_mw ||
          a.sim_nlt_s != b.sim_nlt_s) {
        fail(out, "history entry ", i, " differs at ", threads, " threads");
        break;
      }
    }
  }
  // exec.* counters describe the scheduling itself (batches, queue
  // depths) and are legitimately thread-dependent; everything else must
  // match exactly.
  std::vector<std::string> counter_diffs =
      diff_counters(serial.metrics, par.metrics, {"exec."});
  out.insert(out.end(), counter_diffs.begin(), counter_diffs.end());
  return out;
}

RobustMilpInstance random_robust_milp(Rng& rng) {
  RobustMilpInstance inst;
  milp::Model& m = inst.model;
  const int nb = static_cast<int>(rng.uniform_int(3, 5));
  for (int v = 0; v < nb; ++v) {
    m.add_binary(dyadic16(rng, 0.0, 2.0));
  }
  m.set_objective(lp::Objective::kMinimize);
  // Forcing at least one selection keeps the all-zero point (on which
  // every Γ agrees trivially) out of the feasible set.
  std::vector<lp::Term> card;
  for (int v = 0; v < nb; ++v) card.push_back(lp::Term{v, 1.0});
  m.add_constraint(std::move(card), lp::Sense::kGreaterEqual,
                   static_cast<double>(rng.uniform_int(1, nb - 1)));
  if (rng.bernoulli(0.5)) {
    m.add_constraint(random_row(rng, nb), random_sense(rng),
                     dyadic16(rng, -2.0, 4.0));
  }
  for (int v = 0; v < nb; ++v) {
    if (rng.bernoulli(0.75)) {
      inst.deviations.push_back(
          milp::DeviationTerm{v, dyadic16(rng, 0.0, 2.0)});
    }
  }
  return inst;
}

std::vector<std::string> check_robust_counterpart(
    const RobustMilpInstance& inst) {
  std::vector<std::string> out;
  const int nb = inst.model.num_variables();
  std::vector<int> bins(static_cast<std::size_t>(nb));
  for (int v = 0; v < nb; ++v) bins[static_cast<std::size_t>(v)] = v;
  double prev = 0.0;
  bool have_prev = false;
  for (const int gamma : {0, 1, 2, nb}) {
    const RobustOracleResult oracle =
        solve_robust_exact(inst.model, inst.deviations, gamma);
    const milp::Model rc =
        milp::robust_counterpart(inst.model, inst.deviations, gamma);
    const milp::Solution sol = milp::solve(rc);
    if (!oracle.feasible) {
      if (sol.status != lp::Status::kInfeasible) {
        fail(out, "gamma ", gamma,
             ": oracle says infeasible but the counterpart returned ",
             lp::to_string(sol.status));
      }
      return out;  // feasibility is Γ-independent; nothing more to sweep
    }
    if (sol.status != lp::Status::kOptimal) {
      fail(out, "gamma ", gamma, ": oracle optimum ",
           oracle.objective.to_string(), " but the counterpart returned ",
           lp::to_string(sol.status));
      continue;
    }
    const double exact = oracle.objective.to_double();
    if (std::fabs(sol.objective - exact) > kSolverTol) {
      fail(out, "gamma ", gamma, ": counterpart objective ", sol.objective,
           " differs from the exact worst-case optimum ",
           oracle.objective.to_string(), " = ", exact);
    }
    // The counterpart appends its auxiliaries AFTER the original
    // binaries, so restricting x to [0, nb) recovers the design.
    const std::vector<std::int64_t> a = rounded_assignment(bins, sol.x);
    if (std::find(oracle.optimal_assignments.begin(),
                  oracle.optimal_assignments.end(),
                  a) == oracle.optimal_assignments.end()) {
      fail(out, "gamma ", gamma,
           ": the counterpart's binary assignment is not in the "
           "enumerator's optimal set (",
           oracle.optimal_assignments.size(), " assignments)");
    }
    if (have_prev && exact < prev - 1e-12) {
      fail(out, "robust optimum dropped from ", prev, " to ", exact,
           " when gamma rose to ", gamma);
    }
    prev = exact;
    have_prev = true;
  }
  return out;
}

std::vector<std::string> check_robust_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min,
    const dse::RobustnessOptions& robust) {
  std::vector<std::string> out;
  dse::ExplorationOptions opt;
  opt.pdr_min = pdr_min;
  opt.bound = dse::TerminationBound::kSoundFloor;
  opt.robust = robust;
  const dse::ExplorationResult ex = dse::run_exhaustive(sc, eval, opt);
  eval.reset_counters();  // caches (all realizations) stay; Alg 1 rides them
  const dse::ExplorationResult a1 = dse::run_algorithm1(sc, eval, opt);
  if (ex.feasible != a1.feasible) {
    fail(out, "robust feasibility disagrees at PDRmin ", pdr_min, ", gamma ",
         robust.gamma, ", K ", robust.realizations, ": exhaustive ",
         ex.feasible, ", algorithm1 ", a1.feasible);
    return out;
  }
  if (ex.feasible) {
    if (a1.best_power_mw != ex.best_power_mw) {
      fail(out, "robust optimal power disagrees at PDRmin ", pdr_min,
           ", gamma ", robust.gamma, ", K ", robust.realizations,
           ": exhaustive ", ex.best_power_mw, " mW (", ex.best.label(),
           "), algorithm1 ", a1.best_power_mw, " mW (", a1.best.label(),
           ")");
    }
    if (a1.best_pdr < pdr_min) {
      fail(out, "algorithm1 worst-case PDR ", a1.best_pdr, " misses PDRmin ",
           pdr_min);
    }
    if (a1.best_protection_mw !=
        model::robust_protection_mw(a1.best, robust.gamma)) {
      fail(out, "algorithm1 incumbent protection ", a1.best_protection_mw,
           " mW does not match the closed form for ", a1.best.label());
    }
  }
  if (a1.simulations > ex.simulations) {
    fail(out, "robust algorithm1 needed ", a1.simulations,
         " simulations, more than exhaustive's ", ex.simulations);
  }
  if (a1.realizations != robust.realizations ||
      ex.realizations != robust.realizations) {
    fail(out, "result realizations (", a1.realizations, ", ",
         ex.realizations, ") do not echo the requested K ",
         robust.realizations);
  }
  return out;
}

std::vector<std::string> check_robust_collapse(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  dse::Evaluator eval(spec.settings);
  // Γ=0, K=1 through the robust machinery itself, compared field by
  // field against the plain evaluator: every nominal run is this fold.
  dse::RobustBatch rb(eval, 0, dse::RobustnessOptions{});
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  if (configs.empty()) {
    fail(out, "scenario has an empty feasible design space");
    return out;
  }
  Rng rng = Rng{spec.seed}.fork("check.robust.collapse");
  const int picks = std::min<int>(4, static_cast<int>(configs.size()));
  for (int i = 0; i < picks; ++i) {
    const model::NetworkConfig& cfg =
        configs[rng.uniform_index(configs.size())];
    const dse::RobustEvaluation rev = rb.evaluate_one(cfg);
    const dse::Evaluation& ev = eval.evaluate(cfg);  // cache hit
    if (rev.worst_pdr != ev.pdr || rev.robust_power_mw != ev.power_mw ||
        rev.worst_nlt_s != ev.nlt_s) {
      fail(out, cfg.label(),
           ": Γ=0/K=1 robust aggregate differs from the plain evaluation");
    }
    if (rev.protection_mw != 0.0) {
      fail(out, cfg.label(), ": Γ=0 protection is ", rev.protection_mw,
           " mW, want exactly 0");
    }
    if (rev.pdr_lo != ev.pdr || rev.pdr_hi != ev.pdr) {
      fail(out, cfg.label(), ": K=1 confidence interval [", rev.pdr_lo,
           ", ", rev.pdr_hi, "] is not degenerate at ", ev.pdr);
    }
  }
  // Encoding collapse: Γ=0 costs are bit-identical to the nominal ones.
  dse::MilpEncoding nominal(spec.scenario);
  dse::MilpEncoding robust0(spec.scenario, 0);
  const dse::MilpRound a = nominal.run_milp();
  const dse::MilpRound b = robust0.run_milp();
  if (a.status != b.status || a.power_mw != b.power_mw ||
      a.candidates.size() != b.candidates.size()) {
    fail(out, "Γ=0 MILP round differs from the nominal encoding's");
  } else {
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
      if (a.candidates[i].design_key() != b.candidates[i].design_key()) {
        fail(out, "Γ=0 MILP candidate ", i,
             " differs from the nominal encoding's");
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> check_robust_monotone(
    const ScenarioSpec& spec, const std::vector<int>& gammas,
    const std::vector<int>& realizations) {
  std::vector<std::string> out;
  dse::Evaluator eval(spec.settings);
  const auto run = [&](int gamma, int k) {
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.8;
    opt.robust.gamma = gamma;
    opt.robust.realizations = k;
    eval.reset_counters();  // caches persist — later runs are mostly free
    return dse::run_exhaustive(spec.scenario, eval, opt);
  };
  // Γ sweep at the smallest K: feasibility is Γ-independent (protection
  // only shifts the objective) and the optimum is nondecreasing.
  {
    const int k = realizations.empty() ? 1 : realizations.front();
    bool have_prev = false;
    bool prev_feasible = false;
    double prev_power = 0.0;
    int prev_gamma = 0;
    for (const int gamma : gammas) {
      if (have_prev && gamma < prev_gamma) {
        fail(out, "gammas must be ascending");
        return out;
      }
      const dse::ExplorationResult res = run(gamma, k);
      if (have_prev && res.feasible != prev_feasible) {
        fail(out, "feasibility changed from ", prev_feasible, " to ",
             res.feasible, " when gamma rose from ", prev_gamma, " to ",
             gamma, " (protection must not affect feasibility)");
      }
      if (res.feasible && have_prev && prev_feasible &&
          res.best_power_mw < prev_power - 1e-12) {
        fail(out, "robust optimum dropped from ", prev_power, " mW to ",
             res.best_power_mw, " mW when gamma rose from ", prev_gamma,
             " to ", gamma);
      }
      prev_feasible = res.feasible;
      prev_power = res.best_power_mw;
      prev_gamma = gamma;
      have_prev = true;
    }
  }
  // K sweep at the smallest Γ: realization seeds are nested, so a larger
  // K folds a superset of channels — feasibility can only be lost and
  // the optimum can only rise.
  {
    const int gamma = gammas.empty() ? 0 : gammas.front();
    bool have_prev = false;
    bool prev_feasible = false;
    double prev_power = 0.0;
    int prev_k = 0;
    for (const int k : realizations) {
      if (have_prev && k < prev_k) {
        fail(out, "realizations must be ascending");
        return out;
      }
      const dse::ExplorationResult res = run(gamma, k);
      if (have_prev && res.feasible && !prev_feasible) {
        fail(out, "feasible at K=", k, " after infeasible at K=", prev_k,
             " (nested realizations can only add constraints)");
      }
      if (res.feasible && have_prev && prev_feasible &&
          res.best_power_mw < prev_power - 1e-12) {
        fail(out, "robust optimum dropped from ", prev_power, " mW to ",
             res.best_power_mw, " mW when K rose from ", prev_k, " to ", k);
      }
      prev_feasible = res.feasible;
      prev_power = res.best_power_mw;
      prev_k = k;
      have_prev = true;
    }
  }
  return out;
}

std::vector<std::string> check_robust_thread_determinism(
    const ScenarioSpec& spec, int threads,
    const dse::RobustnessOptions& robust) {
  std::vector<std::string> out;
  const auto run_at = [&](int t) {
    dse::Evaluator eval(spec.settings);
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.8;
    opt.threads = t;
    opt.robust = robust;
    return dse::run_exhaustive(spec.scenario, eval, opt);
  };
  const dse::ExplorationResult serial = run_at(0);
  const dse::ExplorationResult par = run_at(threads);
  if (serial.feasible != par.feasible) {
    fail(out, "robust feasibility differs at ", threads, " threads");
  }
  if (serial.feasible && serial.best.design_key() != par.best.design_key()) {
    fail(out, "robust best design differs at ", threads, " threads: ",
         serial.best.label(), " vs ", par.best.label());
  }
  // Exact double comparisons: determinism is bit-identical or broken.
  if (serial.best_power_mw != par.best_power_mw ||
      serial.best_pdr != par.best_pdr ||
      serial.best_nlt_s != par.best_nlt_s ||
      serial.best_pdr_lo != par.best_pdr_lo ||
      serial.best_pdr_hi != par.best_pdr_hi ||
      serial.best_protection_mw != par.best_protection_mw) {
    fail(out, "robust best metrics (incl. CI) differ at ", threads,
         " threads");
  }
  if (serial.simulations != par.simulations) {
    fail(out, "simulation counts differ at ", threads, " threads: ",
         serial.simulations, " vs ", par.simulations);
  }
  if (serial.history.size() != par.history.size()) {
    fail(out, "history lengths differ at ", threads, " threads");
  } else {
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
      const dse::CandidateRecord& a = serial.history[i];
      const dse::CandidateRecord& b = par.history[i];
      if (a.cfg.design_key() != b.cfg.design_key() ||
          a.sim_pdr != b.sim_pdr || a.sim_power_mw != b.sim_power_mw ||
          a.sim_nlt_s != b.sim_nlt_s || a.pdr_lo != b.pdr_lo ||
          a.pdr_hi != b.pdr_hi) {
        fail(out, "robust history entry ", i, " differs at ", threads,
             " threads");
        break;
      }
    }
  }
  std::vector<std::string> counter_diffs =
      diff_counters(serial.metrics, par.metrics, {"exec."});
  out.insert(out.end(), counter_diffs.begin(), counter_diffs.end());
  return out;
}

std::vector<std::string> check_level_walk_stop_rules(
    const ScenarioSpec& spec, const dse::RobustnessOptions& robust) {
  std::vector<std::string> out;
  dse::Evaluator eval(spec.settings);  // shared cache; counts per epoch
  const double pdr_min = 0.8;
  for (const dse::RobustnessOptions& r : {dse::RobustnessOptions{}, robust}) {
    const char* mode = r.active() ? "robust" : "nominal";
    dse::ExplorationOptions opt;
    opt.pdr_min = pdr_min;
    opt.robust = r;
    eval.reset_counters();
    const dse::ExplorationResult a1 =
        dse::run_algorithm1(spec.scenario, eval, opt);
    pareto::SweepOptions sweep;
    sweep.pdr_ladder = {pdr_min};
    sweep.robust = r;
    eval.reset_counters();
    const pareto::SweepResult ladder =
        pareto::ladder_front(spec.scenario, eval, sweep);
    const pareto::RungResult& rung = ladder.rungs.front();
    if (rung.feasible != a1.feasible ||
        (a1.feasible && rung.best.power_mw != a1.best_power_mw)) {
      fail(out, std::setprecision(17), mode, " single-rung ladder optimum (", rung.feasible, ", ",
           rung.best.power_mw, " mW) differs from algorithm1's (",
           a1.feasible, ", ", a1.best_power_mw, " mW)");
    }
    if (ladder.simulations != a1.simulations) {
      fail(out, mode, " single-rung ladder needed ", ladder.simulations,
           " simulations, algorithm1 ", a1.simulations);
    }

    opt.use_alpha_termination = false;
    eval.reset_counters();
    const dse::ExplorationResult dry =
        dse::run_algorithm1(spec.scenario, eval, opt);
    opt.fast_ilp_patience =
        static_cast<int>(dse::MilpEncoding(spec.scenario, r.gamma)
                             .achievable_power_levels()
                             .size()) +
        1;
    eval.reset_counters();
    const dse::ExplorationResult fast =
        dse::run_fast_ilp(spec.scenario, eval, opt);
    if (fast.feasible != dry.feasible ||
        (dry.feasible && fast.best_power_mw != dry.best_power_mw)) {
      fail(out, std::setprecision(17), mode, " unbounded-patience fast-ILP (", fast.feasible, ", ",
           fast.best_power_mw, " mW) differs from dry algorithm1 (",
           dry.feasible, ", ", dry.best_power_mw, " mW)");
    }
  }
  return out;
}

std::vector<std::string> check_robust_encoding_levels(
    const model::Scenario& sc, int gamma) {
  std::vector<std::string> out;
  dse::MilpEncoding enc(sc, gamma);
  double prev = -1.0;
  for (int round = 0; round < 4; ++round) {
    const dse::MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) {
      break;  // cuts exhausted the protected grid
    }
    if (round > 0 && r.power_mw <= prev) {
      fail(out, "gamma ", gamma, " round ", round, " optimum ", r.power_mw,
           " mW did not rise above the cut level ", prev, " mW");
    }
    for (const model::NetworkConfig& cfg : r.candidates) {
      const double expected = model::node_power_mw(cfg) +
                              model::robust_protection_mw(cfg, gamma);
      if (std::fabs(expected - r.power_mw) > 1e-9 * (1.0 + expected)) {
        fail(out, "gamma ", gamma, " round ", round, ": candidate ",
             cfg.label(), " protected analytic power ", expected,
             " mW disagrees with the round optimum ", r.power_mw, " mW");
      }
    }
    prev = r.power_mw;
    enc.add_power_cut_above(r.power_mw);
  }
  return out;
}

std::vector<std::string> check_sim_invariants(const ScenarioSpec& spec,
                                              int max_configs) {
  std::vector<std::string> out;
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  if (configs.empty()) {
    fail(out, "scenario has an empty feasible design space");
    return out;
  }
  Rng rng = Rng{spec.seed}.fork("check.invariants");
  const int picks =
      std::min<int>(max_configs, static_cast<int>(configs.size()));
  for (int i = 0; i < picks; ++i) {
    const model::NetworkConfig& cfg =
        configs[rng.uniform_index(configs.size())];
    net::SimParams params = spec.settings.sim;
    params.seed = rng.next_u64();
    const AuditedRun audited =
        audited_simulate(cfg, params, spec.settings.channel);
    for (const std::string& v : audited.violations) {
      fail(out, cfg.label(), ": ", v);
    }
  }
  return out;
}

std::vector<std::string> diff_counters(
    const obs::Snapshot& a, const obs::Snapshot& b,
    const std::vector<std::string>& ignore_prefixes) {
  std::vector<std::string> out;
  const auto ignored = [&](const std::string& name) {
    return std::any_of(ignore_prefixes.begin(), ignore_prefixes.end(),
                       [&](const std::string& p) {
                         return name.compare(0, p.size(), p) == 0;
                       });
  };
  for (const auto& [name, value] : a.counters) {
    if (ignored(name)) continue;
    if (b.counter(name) != value) {
      fail(out, "counter ", name, ": ", value, " vs ", b.counter(name));
    }
  }
  for (const auto& [name, value] : b.counters) {
    if (ignored(name)) continue;
    if (a.counters.find(name) == a.counters.end() && value != 0) {
      fail(out, "counter ", name, ": absent vs ", value);
    }
  }
  return out;
}

}  // namespace hi::check
