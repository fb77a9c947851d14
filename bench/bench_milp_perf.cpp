// Microbenchmarks of the optimization stack: dense simplex solves,
// branch-and-bound, alternative-optimum enumeration, and the full DSE
// MILP round.  These are the knobs that decide whether the MILP half of
// Algorithm 1 is negligible next to the simulations (it must be — in
// the paper CPLEX solves are instant next to Castalia).  Committed
// baseline: BENCH_milp_perf.json (DESIGN.md §11).
//
// Emits the "hi-bench/v1" JSON report on stdout; progress on stderr.
// All rate metrics are intensive, so HI_BENCH_QUICK runs remain
// comparable to full baselines within the wider quick tolerance.  Quick
// mode divides the batch sizes by 4 but times each row's batch for at
// least 250 ms (the fastest batch counts), so every rate row samples
// enough solves to be steady from one run to the next.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dse/milp_encoding.hpp"
#include "lp/simplex.hpp"
#include "milp/solver.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace hi;

volatile std::uint64_t g_sink = 0;  ///< defeats dead-code elimination

/// How every rate row is timed: the fastest of at least `reps` batches,
/// and of as many as fit in `min_total_s` (bench::time_best_of).
struct Timing {
  int reps;
  double min_total_s;
};

/// Random dense-ish LP with n variables and m rows.
lp::Problem random_lp(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  lp::Problem p;
  p.set_objective(lp::Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    p.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(0.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.uniform(0.0, 2.0)});
    }
    p.add_constraint(terms, lp::Sense::kLessEqual, rng.uniform(1.0, 5.0));
  }
  return p;
}

void simplex_solve(bench::BenchReport& rep, const Timing& t, int n,
                   int solves) {
  const lp::Problem p = random_lp(n, n, 42);
  const double wall = bench::time_best_of(t.reps, [&] {
    for (int i = 0; i < solves; ++i) {
      g_sink = g_sink + static_cast<std::uint64_t>(lp::solve_simplex(p).status);
    }
  }, t.min_total_s);
  rep.add_rate("simplex_solve_n" + std::to_string(n), "solves/s",
               static_cast<std::uint64_t>(solves), wall);
}

void milp_knapsack(bench::BenchReport& rep, const Timing& t, int n,
                   int solves) {
  Rng rng(7);
  milp::Model m;
  m.set_objective(lp::Objective::kMaximize);
  std::vector<lp::Term> row;
  for (int j = 0; j < n; ++j) {
    m.add_binary(rng.uniform(1.0, 10.0));
    row.push_back({j, rng.uniform(1.0, 10.0)});
  }
  m.add_constraint(row, lp::Sense::kLessEqual, 2.5 * n);
  const double wall = bench::time_best_of(t.reps, [&] {
    for (int i = 0; i < solves; ++i) {
      g_sink = g_sink + static_cast<std::uint64_t>(milp::solve(m).status);
    }
  }, t.min_total_s);
  rep.add_rate("milp_knapsack_n" + std::to_string(n), "solves/s",
               static_cast<std::uint64_t>(solves), wall);
}

void milp_pool(bench::BenchReport& rep, const Timing& t, int k, int solves) {
  // k interchangeable binaries, pick exactly 2: C(k,2) alternative optima.
  milp::Model m;
  std::vector<lp::Term> sum;
  for (int j = 0; j < k; ++j) {
    m.add_binary(1.0);
    sum.push_back({j, 1.0});
  }
  m.add_constraint(sum, lp::Sense::kEqual, 2.0);
  const double wall = bench::time_best_of(t.reps, [&] {
    for (int i = 0; i < solves; ++i) {
      g_sink = g_sink + milp::solve_all_optimal(m).solutions.size();
    }
  }, t.min_total_s);
  rep.add_rate("milp_pool_k" + std::to_string(k), "enumerations/s",
               static_cast<std::uint64_t>(solves), wall);
}

void dse_milp_round(bench::BenchReport& rep, const Timing& t, int rounds) {
  const model::Scenario scenario;
  const double wall = bench::time_best_of(t.reps, [&] {
    for (int i = 0; i < rounds; ++i) {
      dse::MilpEncoding enc(scenario);
      g_sink = g_sink + enc.run_milp().candidates.size();
    }
  }, t.min_total_s);
  rep.add_rate("dse_milp_round", "rounds/s",
               static_cast<std::uint64_t>(rounds), wall);
}

/// Walks every power level of the paper encoding: solve, cut above P̄*,
/// repeat until infeasible.  `metrics` (may be null) records the solves.
void sweep_all_levels(const model::Scenario& scenario,
                      obs::MetricsRegistry* metrics) {
  milp::Options opt;
  opt.metrics = metrics;
  dse::MilpEncoding enc(scenario);
  for (;;) {
    const dse::MilpRound r = enc.run_milp(opt);
    if (r.status != lp::Status::kOptimal) break;
    g_sink = g_sink + 1;
    enc.add_power_cut_above(r.power_mw);
  }
}

void dse_milp_all_levels(bench::BenchReport& rep, const Timing& t, int sweeps) {
  const model::Scenario scenario;
  const double wall = bench::time_best_of(t.reps, [&] {
    for (int i = 0; i < sweeps; ++i) {
      sweep_all_levels(scenario, nullptr);
    }
  }, t.min_total_s);
  rep.add_rate("dse_milp_all_levels", "sweeps/s",
               static_cast<std::uint64_t>(sweeps), wall);
  // The work behind one sweep, from one extra untimed sweep: exact, so a
  // change to the LP or branch-and-bound path cannot pass as a speed-up.
  obs::MetricsRegistry registry;
  sweep_all_levels(scenario, &registry);
  const obs::Snapshot snap = registry.snapshot();
  const std::uint64_t pivots = snap.counter("milp.lp_pivots");
  const std::uint64_t nodes = snap.counter("milp.bnb_nodes");
  rep.add(bench::BenchMetric{"dse_milp_all_levels_pivots", "count",
                             static_cast<double>(pivots), "exact", true,
                             pivots, 0.0});
  rep.add(bench::BenchMetric{"dse_milp_all_levels_nodes", "count",
                             static_cast<double>(nodes), "exact", true, nodes,
                             0.0});
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const Timing t{quick ? 2 : 3, quick ? 0.25 : 0.0};
  const int scale = quick ? 4 : 1;  // divide iteration counts by this

  std::cerr << "bench_milp_perf: " << (quick ? "quick" : "full")
            << " (JSON on stdout)\n";

  bench::BenchReport rep("milp_perf", bench::experiment_settings());
  simplex_solve(rep, t, 10, 400 / scale);
  simplex_solve(rep, t, 40, 40 / scale);
  simplex_solve(rep, t, 80, 12 / scale);
  milp_knapsack(rep, t, 10, 40 / scale);
  milp_knapsack(rep, t, 20, 4 / scale);
  milp_pool(rep, t, 6, 40 / scale);
  milp_pool(rep, t, 10, 8 / scale);
  dse_milp_round(rep, t, 20 / scale);
  dse_milp_all_levels(rep, t, 4 / scale);

  rep.write(std::cout);
  return 0;
}
