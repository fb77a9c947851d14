// hi-opt: exact LP oracle — rational vertex enumeration.
//
// For a *box-bounded* lp::Problem (every variable has finite lower and
// upper bounds, so the feasible region is a polytope) the optimum, when
// one exists, is attained at a vertex, and every vertex is the
// intersection of n linearly independent active constraints drawn from
// the rows plus the bound hyperplanes.  The oracle enumerates all
// n-subsets of those hyperplanes, solves each n-by-n system in exact
// rational arithmetic (check::Rational), keeps the feasible solutions,
// and returns the exact optimum — or kInfeasible when no feasible
// vertex exists (a nonempty bounded polytope always has one).
//
// This is O(C(m + 2n, n) * n^3) rational operations: exhaustive, not
// fast.  Scope limits (enforced with hi::ModelError): n <= kMaxVars
// variables and at most kMaxSystems candidate systems.  Within that
// envelope the verdict is *exact* — the differential tests use it as
// ground truth for hi::lp::solve_simplex at n >= 3, generalizing the
// 2-D line-intersection oracle that tests/test_lp_exact.cpp grew up
// with.
#pragma once

#include <cstdint>
#include <vector>

#include "check/rational.hpp"
#include "lp/problem.hpp"

namespace hi::check {

/// Exact verdicts.  Unbounded cannot occur: the oracle requires a
/// bounded box, and rejects problems that do not have one.
enum class OracleStatus { kOptimal, kInfeasible };

/// Outcome of an exact LP solve.
struct LpOracleResult {
  OracleStatus status = OracleStatus::kInfeasible;
  Rational objective;        ///< exact, in the problem's own sense
  std::vector<Rational> x;   ///< one optimal vertex
  std::uint64_t systems_solved = 0;  ///< n-by-n systems attempted
};

/// Scope limits (see file comment).
inline constexpr int kMaxOracleVars = 6;
inline constexpr std::uint64_t kMaxOracleSystems = 500'000;

/// Solves `p` exactly by vertex enumeration.  Throws hi::ModelError when
/// a variable is unbounded or the instance exceeds the scope limits, and
/// check::OverflowError when the arithmetic outgrows the 128-bit limbs.
[[nodiscard]] LpOracleResult solve_lp_exact(const lp::Problem& p);

}  // namespace hi::check
