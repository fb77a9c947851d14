#include "check/lp_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace hi::check {

namespace {

/// One candidate active hyperplane a'x = b.
struct Hyperplane {
  std::vector<Rational> a;
  Rational b;
};

/// One exact feasibility row a'x (sense) b.
struct ExactRow {
  std::vector<Rational> a;
  Rational b;
  lp::Sense sense = lp::Sense::kLessEqual;
};

/// Solves the n-by-n rational system rows[pick] * x = rhs[pick] by
/// Gauss-Jordan elimination.  Returns false when singular.
bool solve_square(const std::vector<const Hyperplane*>& pick,
                  std::vector<Rational>& x) {
  const std::size_t n = pick.size();
  const std::size_t w = n + 1;
  // Augmented matrix [A | b], row-major.
  std::vector<Rational> m(n * w);
  const auto at = [&m, w](std::size_t r, std::size_t c) -> Rational& {
    return m[r * w + c];
  };
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(pick[r]->a.begin(), pick[r]->a.end(), m.begin() + r * w);
    at(r, n) = pick[r]->b;
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    while (piv < n && at(piv, col).is_zero()) ++piv;
    if (piv == n) {
      return false;  // singular: the chosen hyperplanes are dependent
    }
    std::swap_ranges(m.begin() + col * w, m.begin() + (col + 1) * w,
                     m.begin() + piv * w);
    const Rational inv = Rational{1} / at(col, col);
    for (std::size_t j = col; j <= n; ++j) {
      at(col, j) *= inv;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const Rational f = at(r, col);
      if (f.is_zero()) continue;
      for (std::size_t j = col; j <= n; ++j) {
        at(r, j) -= f * at(col, j);
      }
    }
  }
  x.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    x[r] = at(r, n);
  }
  return true;
}

/// Binomial coefficient with saturation (scope pre-check only).
std::uint64_t choose_saturating(std::uint64_t h, std::uint64_t n) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= n; ++i) {
    if (r > kMaxOracleSystems) return r;  // saturate: caller only compares
    r = r * (h - n + i) / i;
  }
  return r;
}

}  // namespace

LpOracleResult solve_lp_exact(const lp::Problem& p) {
  const int n = p.num_variables();
  HI_REQUIRE(n >= 1 && n <= kMaxOracleVars,
             "lp oracle: " << n << " variables outside [1, " << kMaxOracleVars
                           << "]");

  // Exact feasibility rows: user constraints first, then the box.
  std::vector<ExactRow> rows;
  rows.reserve(static_cast<std::size_t>(p.num_constraints() + 2 * n));
  for (int r = 0; r < p.num_constraints(); ++r) {
    const lp::Constraint& c = p.constraint(r);
    ExactRow row;
    row.a.assign(static_cast<std::size_t>(n), Rational{});
    for (const lp::Term& t : c.terms) {
      row.a[static_cast<std::size_t>(t.var)] += Rational::from_double(t.coeff);
    }
    row.b = Rational::from_double(c.rhs);
    row.sense = c.sense;
    rows.push_back(std::move(row));
  }
  std::vector<Rational> lo(static_cast<std::size_t>(n));
  std::vector<Rational> hi(static_cast<std::size_t>(n));
  std::vector<Rational> cost(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const lp::Variable& v = p.variable(j);
    HI_REQUIRE(std::isfinite(v.lower) && std::isfinite(v.upper),
               "lp oracle: variable " << j
                                      << " is unbounded; the vertex oracle "
                                         "requires a finite box");
    lo[static_cast<std::size_t>(j)] = Rational::from_double(v.lower);
    hi[static_cast<std::size_t>(j)] = Rational::from_double(v.upper);
    cost[static_cast<std::size_t>(j)] = Rational::from_double(v.cost);
  }

  // Candidate active hyperplanes: every row as an equality, plus the
  // bound faces.  (An equality row is its own hyperplane; inequality
  // rows contribute their boundary.)
  std::vector<Hyperplane> planes;
  planes.reserve(rows.size() + 2 * static_cast<std::size_t>(n));
  for (const ExactRow& r : rows) {
    planes.push_back(Hyperplane{r.a, r.b});
  }
  for (int j = 0; j < n; ++j) {
    Hyperplane lo_face;
    lo_face.a.assign(static_cast<std::size_t>(n), Rational{});
    lo_face.a[static_cast<std::size_t>(j)] = Rational{1};
    lo_face.b = lo[static_cast<std::size_t>(j)];
    planes.push_back(lo_face);
    if (!(lo[static_cast<std::size_t>(j)] == hi[static_cast<std::size_t>(j)])) {
      Hyperplane hi_face = lo_face;
      hi_face.b = hi[static_cast<std::size_t>(j)];
      planes.push_back(std::move(hi_face));
    }
  }

  const std::uint64_t combos =
      choose_saturating(planes.size(), static_cast<std::uint64_t>(n));
  HI_REQUIRE(combos <= kMaxOracleSystems,
             "lp oracle: " << planes.size() << " hyperplanes in " << n
                           << " variables need > " << kMaxOracleSystems
                           << " candidate systems");

  const bool maximize = p.objective() == lp::Objective::kMaximize;
  const auto feasible = [&](const std::vector<Rational>& x) {
    for (int j = 0; j < n; ++j) {
      if (x[static_cast<std::size_t>(j)] < lo[static_cast<std::size_t>(j)] ||
          x[static_cast<std::size_t>(j)] > hi[static_cast<std::size_t>(j)]) {
        return false;
      }
    }
    for (const ExactRow& r : rows) {
      Rational lhs;
      for (int j = 0; j < n; ++j) {
        if (r.a[static_cast<std::size_t>(j)].is_zero()) continue;
        lhs += r.a[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
      }
      switch (r.sense) {
        case lp::Sense::kLessEqual:
          if (lhs > r.b) return false;
          break;
        case lp::Sense::kEqual:
          if (lhs != r.b) return false;
          break;
        case lp::Sense::kGreaterEqual:
          if (lhs < r.b) return false;
          break;
      }
    }
    return true;
  };

  LpOracleResult result;
  std::vector<const Hyperplane*> pick(static_cast<std::size_t>(n));
  std::vector<Rational> x;
  bool any = false;
  // Enumerate n-subsets of planes (lexicographic index recursion).
  std::vector<int> idx(static_cast<std::size_t>(n));
  const int h = static_cast<int>(planes.size());
  const auto consider = [&]() {
    for (int k = 0; k < n; ++k) {
      pick[static_cast<std::size_t>(k)] =
          &planes[static_cast<std::size_t>(idx[static_cast<std::size_t>(k)])];
    }
    ++result.systems_solved;
    if (!solve_square(pick, x)) return;
    if (!feasible(x)) return;
    Rational obj;
    for (int j = 0; j < n; ++j) {
      if (cost[static_cast<std::size_t>(j)].is_zero()) continue;
      obj += cost[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
    }
    const bool better =
        !any || (maximize ? obj > result.objective : obj < result.objective);
    if (better) {
      any = true;
      result.objective = obj;
      result.x = x;
    }
  };
  // Iterative combination walk.
  for (int k = 0; k < n; ++k) idx[static_cast<std::size_t>(k)] = k;
  if (n <= h) {
    for (;;) {
      consider();
      int k = n - 1;
      while (k >= 0 && idx[static_cast<std::size_t>(k)] == h - n + k) --k;
      if (k < 0) break;
      ++idx[static_cast<std::size_t>(k)];
      for (int j = k + 1; j < n; ++j) {
        idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
      }
    }
  }

  result.status = any ? OracleStatus::kOptimal : OracleStatus::kInfeasible;
  return result;
}

}  // namespace hi::check
