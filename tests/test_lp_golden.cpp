// Bit-level pins of the simplex path (lp/simplex.hpp).
//
// Every optimisation of solve_simplex must do the same pivots, in the
// same order, with the same arithmetic.  These goldens record, per
// instance, the status, the pivot counts (total and under the Bland
// fallback), the objective's bits and a hash of the primal point's bits,
// plus the paper encoding's full level walk (each round's P̄* bits and
// decoded-set size, and the walk's solve / node / pivot totals).  A
// change that alters any pivot or any rounding shows up here; a change
// of the pivot rule itself must re-record them deliberately.
//
// On a mismatch the table tests print the freshly computed rows in the
// source form below, so re-recording is a copy-paste.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/properties.hpp"
#include "common/rng.hpp"
#include "dse/milp_encoding.hpp"
#include "lp/simplex.hpp"
#include "milp/solver.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"

namespace hi::lp {
namespace {

/// FNV-1a over the bit patterns of `x`.
std::uint64_t hash_bits(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : x) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// One solve's fingerprint.  For MILP rows `iterations` is the total LP
/// pivots and `bland_pivots` the branch-and-bound node count.
struct Golden {
  int status;
  int iterations;
  int bland_pivots;
  std::uint64_t objective_bits;
  std::uint64_t x_hash;

  bool operator==(const Golden&) const = default;
};

Golden fingerprint(const Solution& s) {
  return {static_cast<int>(s.status), s.iterations, s.bland_pivots,
          std::bit_cast<std::uint64_t>(s.objective), hash_bits(s.x)};
}

Golden fingerprint(const milp::Solution& s) {
  return {static_cast<int>(s.status), s.lp_iterations, s.nodes,
          std::bit_cast<std::uint64_t>(s.objective), hash_bits(s.x)};
}

/// Prints a row in the source form of the tables below.
std::ostream& operator<<(std::ostream& os, const Golden& g) {
  char line[96];
  std::snprintf(line, sizeof line,
                "{%d, %d, %d, 0x%016llxULL, 0x%016llxULL}", g.status,
                g.iterations, g.bland_pivots,
                static_cast<unsigned long long>(g.objective_bits),
                static_cast<unsigned long long>(g.x_hash));
  return os << line;
}

void expect_goldens(const std::vector<Golden>& actual,
                    const std::vector<Golden>& expected) {
  std::ostringstream recomputed;
  for (const Golden& g : actual) recomputed << "      " << g << ",\n";
  EXPECT_EQ(actual, expected) << "recomputed:\n" << recomputed.str();
}

/// The random dense LPs bench_milp_perf times (same generator and seed):
/// n variables in [0, U(0.5, 4)], n dense <= rows, maximise.
Problem bench_dense_lp(int n) {
  Rng rng(42);
  Problem p;
  p.set_objective(Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    p.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(0.0, 3.0));
  }
  for (int r = 0; r < n; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.uniform(0.0, 2.0)});
    }
    p.add_constraint(terms, Sense::kLessEqual, rng.uniform(1.0, 5.0));
  }
  return p;
}

/// The binary knapsacks bench_milp_perf times (same generator and seed).
milp::Model bench_knapsack(int n) {
  Rng rng(7);
  milp::Model m;
  m.set_objective(Objective::kMaximize);
  std::vector<Term> row;
  for (int j = 0; j < n; ++j) {
    m.add_binary(rng.uniform(1.0, 10.0));
    row.push_back({j, rng.uniform(1.0, 10.0)});
  }
  m.add_constraint(row, Sense::kLessEqual, 2.5 * n);
  return m;
}

TEST(LpGolden, BenchDenseLps) {
  std::vector<Golden> actual;
  for (int n : {10, 40, 80}) {
    actual.push_back(fingerprint(solve_simplex(bench_dense_lp(n))));
  }
  // The n = 40 instance again with a one-pivot Dantzig budget: the rest
  // of both phases runs under Bland's rule.
  SimplexOptions bland;
  bland.dantzig_stall_budget = 1;
  actual.push_back(fingerprint(solve_simplex(bench_dense_lp(40), bland)));
  expect_goldens(actual, {
      {0, 5, 0, 0x401afc7553ec1cfeULL, 0x21e08259a538835cULL},
      {0, 15, 0, 0x400bea9745150ab1ULL, 0xe0784520920de9bfULL},
      {0, 11, 0, 0x400fc11b86959461ULL, 0xb8b7537d35289252ULL},
      {0, 16, 15, 0x400bea9745150ab1ULL, 0x51d65a0413e6a2d3ULL},
  });
}

TEST(LpGolden, RandomBoundedLps) {
  Rng rng(2017);
  std::vector<Golden> actual;
  for (int i = 0; i < 32; ++i) {
    actual.push_back(
        fingerprint(solve_simplex(check::random_bounded_lp(rng, 8))));
  }
  expect_goldens(actual, {
      {0, 4, 0, 0x4008780000000000ULL, 0x40159094d17c76e0ULL},
      {0, 2, 0, 0x4015e40000000000ULL, 0x58da9d5c84ed64b8ULL},
      {1, 4, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {0, 7, 0, 0xc016800000000000ULL, 0xb11f66c7c6528295ULL},
      {1, 10, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {0, 2, 0, 0x4002b80000000000ULL, 0xb8a49bdbe70d3d7bULL},
      {0, 5, 0, 0xc020e40000000000ULL, 0x4be3fb03a4ed77e8ULL},
      {1, 1, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 5, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 1, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 7, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 1, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 3, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 1, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 2, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 10, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 5, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 2, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {0, 7, 0, 0xc0060f999999999aULL, 0x3642bd1382c00a63ULL},
      {1, 2, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {0, 3, 0, 0x3ff8a00000000000ULL, 0xaafe60abd96bd6e4ULL},
      {1, 6, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 2, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 6, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 4, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 7, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 2, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 2, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {1, 5, 0, 0x0000000000000000ULL, 0xcbf29ce484222325ULL},
      {0, 8, 0, 0x3fffaefa657a969cULL, 0x5822592222c06750ULL},
      {0, 4, 0, 0x4013a65d50038bdbULL, 0x0b6c6f41bdbe3d9aULL},
      {0, 4, 0, 0xc00bb30000000000ULL, 0x73a22883a2d22a58ULL},
  });
}

TEST(LpGolden, BenchKnapsacks) {
  std::vector<Golden> actual;
  for (int n : {10, 20}) {
    actual.push_back(fingerprint(milp::solve(bench_knapsack(n))));
  }
  expect_goldens(actual, {
      {0, 345, 53, 0x403f4e963d4e51e8ULL, 0x31189ee6898fb0e5ULL},
      {0, 5624, 367, 0x40513391856c80d7ULL, 0xafd9538f852f62c5ULL},
  });
}

TEST(LpGolden, RedundantEqualityRowKeepsAnArtificialBasic) {
  // Row 2 is the sum of rows 0 and 1, so after phase 1 one equality row
  // has no structural nonzero left: its artificial stays basic (at 0)
  // through phase 2 while the >= rows make phase 2 pivot around it —
  // the one path where phase 2 runs with an artificial column in the
  // basis (DESIGN.md §11).
  Problem p;
  const int x = p.add_variable(0.0, 5.0, 1.0);
  const int y = p.add_variable(0.0, 5.0, -2.0);
  const int z = p.add_variable(0.0, 4.0, 1.0);
  const int w = p.add_variable(0.0, 5.0, 3.0);
  const int u = p.add_variable(0.0, 5.0, -4.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 3.0);
  p.add_constraint({{y, 1.0}, {z, 1.0}, {w, -1.0}}, Sense::kEqual, 2.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}, {z, 1.0}, {w, -1.0}}, Sense::kEqual,
                   5.0);
  p.add_constraint({{x, 1.0}, {z, 1.0}, {u, -1.0}}, Sense::kGreaterEqual,
                   1.0);
  p.add_constraint({{x, 1.0}, {w, 2.0}, {u, -1.0}}, Sense::kGreaterEqual,
                   0.5);
  for (const std::string& v : check::check_lp_against_oracle(p)) {
    ADD_FAILURE() << v;
  }
  expect_goldens({fingerprint(solve_simplex(p))}, {
      {0, 6, 0, 0xc024aaaaaaaaaaabULL, 0x2a649671e35bf535ULL},
  });
}

TEST(LpGolden, PaperEncodingLevelWalk) {
  // Algorithm 1's MILP side with every level rejected: solve, cut above
  // P̄*, repeat until infeasible.
  const model::Scenario scenario;
  dse::MilpEncoding enc(scenario);
  obs::MetricsRegistry registry;
  milp::Options opt;
  opt.metrics = &registry;
  std::vector<std::uint64_t> power_bits;
  std::vector<std::size_t> candidates;
  std::vector<int> nodes;
  for (;;) {
    const dse::MilpRound r = enc.run_milp(opt);
    if (r.status != Status::kOptimal) break;
    power_bits.push_back(std::bit_cast<std::uint64_t>(r.power_mw));
    candidates.push_back(r.candidates.size());
    nodes.push_back(r.bnb_nodes);
    enc.add_power_cut_above(r.power_mw);
  }
  EXPECT_EQ(power_bits, (std::vector<std::uint64_t>{
      0x3ff011999999999dULL, 0x3ff051eb851eb843ULL, 0x3ff129999999999aULL,
      0x3ff47e6666666666ULL, 0x3ff4beb851eb8518ULL, 0x3ff5966666666650ULL,
      0x3ff8eb3333333336ULL, 0x3ff92b851eb8510aULL, 0x3ffa033333333336ULL,
      0x400460ccccccccceULL, 0x4005019999999998ULL, 0x40071cccccccccd7ULL,
      0x4019826666666663ULL, 0x401a233333333332ULL, 0x401c3e6666666665ULL,
      0x402a3e9999999999ULL, 0x402ac747ae147adfULL, 0x402c919999999997ULL}));
  EXPECT_EQ(candidates, (std::vector<std::size_t>{16, 16, 16, 72, 72, 72, 132,
                                                  132, 132, 16, 16, 16, 72, 72,
                                                  72, 132, 132, 132}));
  EXPECT_EQ(nodes, (std::vector<int>{1, 7, 13, 17, 19, 17, 19, 11, 13, 7, 9,
                                     15, 9, 11, 17, 19, 17, 11}));
  // 18 optimal rounds plus the final infeasible one.
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("milp.solves"), 19u);
  EXPECT_EQ(snap.counter("milp.bnb_nodes"), 233u);
  EXPECT_EQ(snap.counter("milp.lp_pivots"), 17504u);
}

}  // namespace
}  // namespace hi::lp
