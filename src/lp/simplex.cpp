#include "lp/simplex.hpp"

#include <cmath>
#include <cstddef>

#include "common/assert.hpp"

namespace hi::lp {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterationLimit:
      return "iteration-limit";
  }
  return "?";
}

namespace {

/// How an original variable maps into standard-form column(s).
struct VarMap {
  enum class Kind { kShift, kMirror, kSplit } kind = Kind::kShift;
  int col = -1;        ///< primary column
  int col_neg = -1;    ///< negative part (kSplit only)
  double offset = 0.0; ///< lo (kShift) or hi (kMirror)

  /// Sign of the primary column: x = offset + sign * y (kShift/kMirror).
  double sign() const { return kind == Kind::kMirror ? -1.0 : 1.0; }
};

/// Dense standard-form tableau  min c'y  s.t.  Ay = b, y >= 0, b >= 0.
struct Tableau {
  int m = 0;  ///< rows
  int n = 0;  ///< columns in use (structural + slack + artificial)
  /// pivot() updates and run_phase() prices columns [0, live) only.  Phase
  /// 1 keeps every column live; from the end of phase 1 on, live =
  /// first_artificial and the artificial columns go stale: no artificial
  /// may enter again and nothing reads their entries (a basic artificial
  /// on a redundant row keeps its value in b).
  int live = 0;
  std::vector<double> a;  ///< row-major m x n
  std::vector<double> b;  ///< rhs, length m
  std::vector<double> c;  ///< costs, length n
  std::vector<int> basis; ///< basic column of each row
  int first_artificial = 0;  ///< columns >= this are artificials
  std::vector<int> pivot_nz;  ///< reused: nonzero columns of the pivot row

  double& at(int r, int col) { return a[static_cast<std::size_t>(r) * n + col]; }
  double at(int r, int col) const {
    return a[static_cast<std::size_t>(r) * n + col];
  }

  void pivot(int pr, int pc) {
    const double piv = at(pr, pc);
    HI_ASSERT(std::fabs(piv) > 0.0);
    const double inv = 1.0 / piv;
    double* prow = &at(pr, 0);
    pivot_nz.clear();
    for (int j = 0; j < live; ++j) {
      prow[j] *= inv;
      if (prow[j] != 0.0) pivot_nz.push_back(j);
    }
    b[pr] *= inv;
    for (int r = 0; r < m; ++r) {
      if (r == pr) continue;
      double* row = &at(r, 0);
      const double f = row[pc];
      if (f == 0.0) continue;
      // A zero pivot-row entry would subtract only ±0: skip it.
      for (int j : pivot_nz) {
        row[j] -= f * prow[j];
      }
      b[r] -= f * b[pr];
      row[pc] = 0.0;  // kill residual rounding noise
    }
    basis[pr] = pc;
  }
};

/// One phase of the simplex on reduced costs of `cost`, over the live
/// columns.  Starts with Dantzig's rule (steepest reduced cost) for speed
/// and falls back to Bland's rule (smallest index) after
/// `dantzig_budget` pivots, which guarantees termination on degenerate
/// problems.  Returns status and the iteration counts through `iters` /
/// `bland_pivots`.
Status run_phase(Tableau& t, const std::vector<double>& cost, double tol,
                 int max_iters, int dantzig_budget, int& iters,
                 int& bland_pivots) {
  const int m = t.m;
  const int live = t.live;
  int phase_iters = 0;
  // y[j] of basic vars is b[row]; reduced cost d_j = c_j - z_j where
  // z_j = sum_r c_basis[r] * a[r][j].
  std::vector<double> d(static_cast<std::size_t>(live));
  for (;;) {
    if (iters >= max_iters) {
      return Status::kIterationLimit;
    }
    // Reduced costs.
    for (int j = 0; j < live; ++j) {
      d[j] = cost[static_cast<std::size_t>(j)];
    }
    for (int r = 0; r < m; ++r) {
      const double cb = cost[static_cast<std::size_t>(t.basis[r])];
      if (cb == 0.0) continue;
      for (int j = 0; j < live; ++j) {
        d[j] -= cb * t.at(r, j);
      }
    }
    int enter = -1;
    const bool bland_mode = phase_iters >= dantzig_budget;
    if (!bland_mode) {
      // Dantzig: most negative reduced cost.
      double best = -tol;
      for (int j = 0; j < live; ++j) {
        if (d[j] < best) {
          best = d[j];
          enter = j;
        }
      }
    } else {
      // Bland: smallest-index column with negative reduced cost.
      for (int j = 0; j < live; ++j) {
        if (d[j] < -tol) {
          enter = j;
          break;
        }
      }
    }
    if (enter < 0) {
      return Status::kOptimal;
    }
    ++phase_iters;
    // Ratio test, Bland tie-break on basic variable index.
    int leave = -1;
    double best_ratio = 0.0;
    for (int r = 0; r < m; ++r) {
      const double arj = t.at(r, enter);
      if (arj > tol) {
        const double ratio = t.b[r] / arj;
        if (leave < 0 || ratio < best_ratio - tol ||
            (std::fabs(ratio - best_ratio) <= tol &&
             t.basis[r] < t.basis[leave])) {
          leave = r;
          best_ratio = ratio;
        }
      }
    }
    if (leave < 0) {
      return Status::kUnbounded;
    }
    t.pivot(leave, enter);
    ++iters;
    if (bland_mode) {
      ++bland_pivots;
    }
  }
}

}  // namespace

Solution solve_simplex(const Problem& p, const SimplexOptions& opt) {
  const int nv = p.num_variables();
  const double tol = opt.tol;

  // ---- Build variable mapping and count standard-form columns. ----------
  std::vector<VarMap> vmap(static_cast<std::size_t>(nv));
  int ncols = 0;
  int n_ub_rows = 0;  // upper-bound rows for doubly-bounded variables
  for (int j = 0; j < nv; ++j) {
    const Variable& v = p.variable(j);
    VarMap& mpj = vmap[static_cast<std::size_t>(j)];
    const bool lo_fin = std::isfinite(v.lower);
    const bool hi_fin = std::isfinite(v.upper);
    if (lo_fin) {
      mpj.kind = VarMap::Kind::kShift;
      mpj.offset = v.lower;
      mpj.col = ncols++;
      if (hi_fin) {
        // Also needed when upper == lower: the row x' <= 0 pins the
        // shifted variable, which is how fixed/branched binaries work.
        ++n_ub_rows;
      }
    } else if (hi_fin) {
      mpj.kind = VarMap::Kind::kMirror;
      mpj.offset = v.upper;
      mpj.col = ncols++;
    } else {
      mpj.kind = VarMap::Kind::kSplit;
      mpj.col = ncols++;
      mpj.col_neg = ncols++;
    }
  }
  const int n_struct = ncols;
  const int n_user_rows = p.num_constraints();
  const int m = n_user_rows + n_ub_rows;

  // ---- Right-hand sides, normalized to b >= 0. ---------------------------
  Tableau t;
  t.m = m;
  t.first_artificial = n_struct + m;  // one slack column per row
  t.b.assign(static_cast<std::size_t>(m), 0.0);
  t.basis.assign(static_cast<std::size_t>(m), -1);
  std::vector<Sense> row_sense(static_cast<std::size_t>(m));
  for (int r = 0; r < n_user_rows; ++r) {
    const Constraint& c = p.constraint(r);
    double shift = 0.0;  // constant the shifted / mirrored terms induce
    for (const Term& term : c.terms) {
      const VarMap& mpj = vmap[static_cast<std::size_t>(term.var)];
      shift += mpj.kind == VarMap::Kind::kSplit ? 0.0 : term.coeff * mpj.offset;
    }
    t.b[r] = c.rhs - shift;
    row_sense[static_cast<std::size_t>(r)] = c.sense;
  }
  // Upper-bound rows: x'_j <= hi - lo for doubly-bounded shifted vars.
  std::vector<int> ub_col;
  ub_col.reserve(static_cast<std::size_t>(n_ub_rows));
  for (int j = 0; j < nv; ++j) {
    const Variable& v = p.variable(j);
    const VarMap& mpj = vmap[static_cast<std::size_t>(j)];
    if (mpj.kind == VarMap::Kind::kShift && std::isfinite(v.upper)) {
      const int r = n_user_rows + static_cast<int>(ub_col.size());
      ub_col.push_back(mpj.col);
      t.b[r] = v.upper - v.lower;
      row_sense[static_cast<std::size_t>(r)] = Sense::kLessEqual;
    }
  }
  HI_ASSERT(n_user_rows + static_cast<int>(ub_col.size()) == m);
  // A row with a negative rhs is negated to reach b >= 0, which swaps
  // <= and >=.  Every row that is not <= after that needs an artificial.
  auto normalized_sense = [&](int r) {
    const Sense s = row_sense[static_cast<std::size_t>(r)];
    if (t.b[r] < 0.0 && s != Sense::kEqual) {
      return s == Sense::kLessEqual ? Sense::kGreaterEqual : Sense::kLessEqual;
    }
    return s;
  };
  int n_art = 0;
  for (int r = 0; r < m; ++r) {
    n_art += normalized_sense(r) == Sense::kLessEqual ? 0 : 1;
  }

  // ---- Columns: structural, one slack per row, the artificials. ----------
  t.n = t.first_artificial + n_art;
  t.live = t.n;
  t.a.assign(static_cast<std::size_t>(t.m) * t.n, 0.0);
  t.c.assign(static_cast<std::size_t>(t.n), 0.0);
  t.pivot_nz.reserve(static_cast<std::size_t>(t.n));

  // Objective in minimize sense over standard columns.
  const double sense_mult =
      p.objective() == Objective::kMaximize ? -1.0 : 1.0;
  for (int j = 0; j < nv; ++j) {
    const Variable& v = p.variable(j);
    const VarMap& mpj = vmap[static_cast<std::size_t>(j)];
    const double cj = sense_mult * v.cost;
    t.c[static_cast<std::size_t>(mpj.col)] += mpj.sign() * cj;
    if (mpj.kind == VarMap::Kind::kSplit) {
      t.c[static_cast<std::size_t>(mpj.col_neg)] -= cj;
    }
  }

  // ---- Fill rows. --------------------------------------------------------
  for (int r = 0; r < n_user_rows; ++r) {
    for (const Term& term : p.constraint(r).terms) {
      const VarMap& mpj = vmap[static_cast<std::size_t>(term.var)];
      t.at(r, mpj.col) += mpj.sign() * term.coeff;
      if (mpj.kind == VarMap::Kind::kSplit) {
        t.at(r, mpj.col_neg) -= term.coeff;
      }
    }
  }
  for (std::size_t k = 0; k < ub_col.size(); ++k) {
    t.at(n_user_rows + static_cast<int>(k), ub_col[k]) = 1.0;
  }

  // Apply the b >= 0 negation and install the slack / artificial basis.
  int next_art = t.first_artificial;
  for (int r = 0; r < m; ++r) {
    const Sense s = normalized_sense(r);
    if (t.b[r] < 0.0) {
      for (int j = 0; j < n_struct; ++j) {
        t.at(r, j) = -t.at(r, j);
      }
      t.b[r] = -t.b[r];
    }
    const int slack_col = n_struct + r;
    switch (s) {
      case Sense::kLessEqual:
        t.at(r, slack_col) = 1.0;
        t.basis[r] = slack_col;  // natural basis
        break;
      case Sense::kGreaterEqual:
        t.at(r, slack_col) = -1.0;
        break;
      case Sense::kEqual:
        break;
    }
    if (t.basis[r] < 0) {
      t.at(r, next_art) = 1.0;
      t.basis[r] = next_art++;
    }
  }

  Solution sol;
  const int max_iters = opt.max_iterations > 0 ? opt.max_iterations
                                              : 200 + 50 * (t.m + t.n);
  // The automatic budget counts an artificial slot per row, used or not.
  const int dantzig_budget = opt.dantzig_stall_budget > 0
                                 ? opt.dantzig_stall_budget
                                 : 20 * (m + n_struct + 2 * m);
  int iters = 0;
  int bland_pivots = 0;

  // ---- Phase 1 (only when artificials exist). -----------------------------
  if (n_art > 0) {
    std::vector<double> phase1_cost(static_cast<std::size_t>(t.n), 0.0);
    for (int j = t.first_artificial; j < t.n; ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    const Status st = run_phase(t, phase1_cost, tol, max_iters,
                                dantzig_budget, iters, bland_pivots);
    if (st == Status::kIterationLimit) {
      sol.status = st;
      sol.iterations = iters;
      sol.bland_pivots = bland_pivots;
      return sol;
    }
    // Phase-1 objective = sum of artificial values.
    double art_sum = 0.0;
    for (int r = 0; r < t.m; ++r) {
      if (t.basis[r] >= t.first_artificial) {
        art_sum += t.b[r];
      }
    }
    if (art_sum > opt.feas_tol) {
      sol.status = Status::kInfeasible;
      sol.iterations = iters;
      sol.bland_pivots = bland_pivots;
      return sol;
    }
    // Drive remaining basic artificials (value ~ 0) out of the basis.  No
    // artificial column is read from here on, so none is updated either.
    t.live = t.first_artificial;
    for (int r = 0; r < t.m; ++r) {
      if (t.basis[r] < t.first_artificial) continue;
      int pc = -1;
      for (int j = 0; j < t.first_artificial; ++j) {
        if (std::fabs(t.at(r, j)) > tol) {
          pc = j;
          break;
        }
      }
      if (pc >= 0) {
        t.pivot(r, pc);
      }
      // else: redundant row; the artificial stays basic at 0 and, being
      // outside the live columns, never re-enters in phase 2.
    }
  }

  // ---- Phase 2. -----------------------------------------------------------
  {
    const Status st = run_phase(t, t.c, tol, max_iters, dantzig_budget,
                                iters, bland_pivots);
    sol.iterations = iters;
    sol.bland_pivots = bland_pivots;
    if (st != Status::kOptimal) {
      sol.status = st;
      return sol;
    }
  }

  // ---- Extract the primal point in original space. ------------------------
  std::vector<double> y(static_cast<std::size_t>(t.n), 0.0);
  for (int r = 0; r < t.m; ++r) {
    y[static_cast<std::size_t>(t.basis[r])] = t.b[r];
  }
  sol.x.assign(static_cast<std::size_t>(nv), 0.0);
  for (int j = 0; j < nv; ++j) {
    const VarMap& mpj = vmap[static_cast<std::size_t>(j)];
    const double yj = y[static_cast<std::size_t>(mpj.col)];
    sol.x[static_cast<std::size_t>(j)] =
        mpj.kind == VarMap::Kind::kSplit
            ? yj - y[static_cast<std::size_t>(mpj.col_neg)]
            : mpj.offset + mpj.sign() * yj;
  }
  sol.objective = p.objective_value(sol.x);
  sol.status = Status::kOptimal;
  return sol;
}

}  // namespace hi::lp
