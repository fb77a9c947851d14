// hi-opt: dense two-phase primal simplex.
//
// Bounded and free variables are reduced to standard form (shift /
// mirror / split), upper bounds become explicit rows, and infeasibility
// is detected with phase-1 artificials.  Pivots follow Dantzig's rule
// and fall back to Bland's after a stall budget, so the method
// terminates on every input (no cycling).
//
// This solver is exact enough and fast enough for the Human-Intranet DSE
// MILPs (tens of variables, ~a hundred rows); it is not intended for
// large-scale LPs.
#pragma once

#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace hi::lp {

/// Solver verdict.
enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

/// Human-readable status name.
[[nodiscard]] const char* to_string(Status s);

/// Result of an LP solve.
struct Solution {
  Status status = Status::kIterationLimit;
  double objective = 0.0;      ///< in the problem's own sense
  std::vector<double> x;       ///< primal point (original variable space)
  int iterations = 0;          ///< total simplex pivots (both phases)
  int bland_pivots = 0;        ///< pivots taken under the Bland fallback
};

/// Solver knobs.
struct SimplexOptions {
  double tol = 1e-9;          ///< pivot / reduced-cost tolerance
  double feas_tol = 1e-7;     ///< phase-1 feasibility tolerance
  int max_iterations = 0;     ///< 0 => automatic (scales with problem size)
  /// Dantzig pivots granted per phase before the anti-cycling Bland
  /// fallback takes over; 0 => automatic (20 * (3 * rows + structural
  /// columns)).
  /// Tests set it to 1 to force the fallback on degenerate problems.
  int dantzig_stall_budget = 0;
};

/// Solves `p` with the two-phase primal simplex method.
[[nodiscard]] Solution solve_simplex(const Problem& p,
                                     const SimplexOptions& opt = {});

}  // namespace hi::lp
