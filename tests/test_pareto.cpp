// hi::pareto — FrontBuilder semantics and the sweep differentials
// (DESIGN.md §14).
//
// The load-bearing test is ExhaustiveFrontMatchesBruteForceOracle: the
// subsystem's front must equal an independent O(n²) dominance pass over
// every feasible evaluation, bit for bit.  LadderFrontIsSubset then pins
// the MILP ladder against the exhaustive front (subset + identical
// per-rung optima), WarmStoreRerunSimulatesNothing pins the resumability
// contract, and ThreadCountInvariant pins determinism.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/scenario_gen.hpp"
#include "dse/evaluator.hpp"
#include "model/design_space.hpp"
#include "pareto/front.hpp"
#include "pareto/sweep.hpp"
#include "store/store.hpp"

namespace hi {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Distinct design points to hang hand-made objective values on (the
/// builder dedups by design_key, so unit tests need real configs).
std::vector<model::NetworkConfig> distinct_configs(std::size_t n) {
  const model::Scenario scenario;
  const std::vector<model::NetworkConfig> all = scenario.feasible_configs();
  EXPECT_GE(all.size(), n);
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n)};
}

pareto::FrontPoint point(const model::NetworkConfig& cfg, double power,
                         double pdr, double p95) {
  pareto::FrontPoint p;
  p.cfg = cfg;
  p.power_mw = power;
  p.pdr = pdr;
  p.p95_s = p95;
  p.pdr_lo = pdr;
  p.pdr_hi = pdr;
  return p;
}

TEST(Front, DominanceIsStrictAndTiesSurvive) {
  const std::vector<model::NetworkConfig> cfgs = distinct_configs(2);
  const pareto::FrontPoint a = point(cfgs[0], 1.0, 0.9, 0.5);
  const pareto::FrontPoint better = point(cfgs[1], 1.0, 0.9, 0.4);
  const pareto::FrontPoint tie = point(cfgs[1], 1.0, 0.9, 0.5);
  const pareto::FrontPoint trade = point(cfgs[1], 0.5, 0.8, 0.5);
  EXPECT_TRUE(pareto::dominates(better, a));
  EXPECT_FALSE(pareto::dominates(a, better));
  EXPECT_FALSE(pareto::dominates(tie, a));  // equal objectives: no dominance
  EXPECT_FALSE(pareto::dominates(a, tie));
  EXPECT_FALSE(pareto::dominates(trade, a));  // cheaper but lossier
  EXPECT_FALSE(pareto::dominates(a, trade));
}

TEST(Front, BuilderKeepsTiesDropsDominatedDisplacesWorse) {
  const std::vector<model::NetworkConfig> cfgs = distinct_configs(4);
  pareto::FrontBuilder fb;
  EXPECT_TRUE(fb.insert(point(cfgs[0], 1.0, 0.9, 0.5)));
  // Identical objectives on a different design: a tie, both stay.
  EXPECT_TRUE(fb.insert(point(cfgs[1], 1.0, 0.9, 0.5)));
  EXPECT_EQ(fb.size(), 2u);
  // Dominated offer: rejected.
  EXPECT_FALSE(fb.insert(point(cfgs[2], 1.5, 0.9, 0.5)));
  EXPECT_EQ(fb.dominated_dropped(), 1u);
  // Dominating offer: displaces both tied members.
  EXPECT_TRUE(fb.insert(point(cfgs[3], 0.9, 0.95, 0.4)));
  EXPECT_EQ(fb.size(), 1u);
  EXPECT_EQ(fb.displaced(), 2u);
  EXPECT_EQ(fb.offered(), 4u);
}

TEST(Front, BuilderDedupsByDesignKey) {
  const std::vector<model::NetworkConfig> cfgs = distinct_configs(1);
  pareto::FrontBuilder fb;
  EXPECT_TRUE(fb.insert(point(cfgs[0], 1.0, 0.9, 0.5)));
  // Re-offering the same design is a no-op, whatever the objectives
  // claim (evaluation is deterministic, so they cannot legally differ).
  EXPECT_FALSE(fb.insert(point(cfgs[0], 0.1, 0.99, 0.1)));
  EXPECT_EQ(fb.size(), 1u);
  EXPECT_EQ(fb.offered(), 1u);
  EXPECT_EQ(bits(fb.front()[0].power_mw), bits(1.0));
}

TEST(Front, EpsilonDominanceThinsNearTies) {
  const std::vector<model::NetworkConfig> cfgs = distinct_configs(3);
  pareto::FrontOptions opt;
  opt.epsilon_power_mw = 0.1;
  pareto::FrontBuilder fb(opt);
  EXPECT_TRUE(fb.insert(point(cfgs[0], 1.0, 0.9, 0.5)));
  // Within ε on power, equal elsewhere: ε-dominated, thinned away.
  EXPECT_FALSE(fb.insert(point(cfgs[1], 0.95, 0.9, 0.5)));
  // Beyond ε cheaper: survives (and ε-dominates the member back).
  EXPECT_TRUE(fb.insert(point(cfgs[2], 0.7, 0.9, 0.5)));
  EXPECT_EQ(fb.size(), 1u);
}

TEST(Front, LexOrderIsTotalAndDeterministic) {
  const std::vector<model::NetworkConfig> cfgs = distinct_configs(2);
  const pareto::FrontPoint a = point(cfgs[0], 1.0, 0.9, 0.5);
  const pareto::FrontPoint b = point(cfgs[1], 1.0, 0.9, 0.5);
  // Equal objectives: the design key breaks the tie, one way only.
  EXPECT_NE(pareto::lex_before(a, b), pareto::lex_before(b, a));
  const pareto::FrontPoint cheaper = point(cfgs[1], 0.5, 0.1, 9.0);
  EXPECT_TRUE(pareto::lex_before(cheaper, a));  // power dominates the order
}

/// All feasible evaluations of the spec's scenario as FrontPoints, via
/// plain evaluator calls (no pareto:: sweep code involved).
std::vector<pareto::FrontPoint> evaluate_all(
    const check::ScenarioSpec& spec, dse::Evaluator& eval) {
  std::vector<pareto::FrontPoint> out;
  for (const model::NetworkConfig& cfg : spec.scenario.feasible_configs()) {
    out.push_back(pareto::make_point(cfg, eval.evaluate(cfg)));
  }
  return out;
}

/// O(n²) dominance oracle: keep exactly the points no other point
/// dominates, sorted by lex_before.
std::vector<pareto::FrontPoint> brute_force_front(
    std::vector<pareto::FrontPoint> pts) {
  std::vector<pareto::FrontPoint> front;
  for (const pareto::FrontPoint& p : pts) {
    const bool dominated =
        std::any_of(pts.begin(), pts.end(), [&](const pareto::FrontPoint& q) {
          return q.cfg.design_key() != p.cfg.design_key() &&
                 pareto::dominates(q, p);
        });
    if (!dominated) front.push_back(p);
  }
  std::sort(front.begin(), front.end(), pareto::lex_before);
  return front;
}

check::ScenarioSpec pareto_spec() {
  check::ScenarioSpec spec = check::make_scenario(11);
  spec.settings.sim.collect_latency = true;  // exercise all 3 objectives
  return spec;
}

void expect_same_points(const std::vector<pareto::FrontPoint>& got,
                        const std::vector<pareto::FrontPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(want[i].cfg.label());
    EXPECT_EQ(got[i].cfg.design_key(), want[i].cfg.design_key());
    EXPECT_EQ(bits(got[i].power_mw), bits(want[i].power_mw));
    EXPECT_EQ(bits(got[i].pdr), bits(want[i].pdr));
    EXPECT_EQ(bits(got[i].p95_s), bits(want[i].p95_s));
  }
}

TEST(Sweep, ExhaustiveFrontMatchesBruteForceOracle) {
  const check::ScenarioSpec spec = pareto_spec();
  dse::Evaluator eval(spec.settings);
  const pareto::SweepResult res =
      pareto::exhaustive_front(spec.scenario, eval);
  ASSERT_FALSE(res.front.empty());
  // Independent evaluation rides the cache: identical bits, zero cost.
  const std::vector<pareto::FrontPoint> oracle =
      brute_force_front(evaluate_all(spec, eval));
  expect_same_points(res.front, oracle);
  // Every delivering front point has a positive p95: the latency
  // objective is live.  (A zero-PDR design has no delay samples, so its
  // p95 is 0.0 — the front's legitimate "radio off" corner.)
  for (const pareto::FrontPoint& p : res.front) {
    if (p.pdr > 0.0) {
      EXPECT_GT(p.p95_s, 0.0) << p.cfg.label();
    }
  }
}

TEST(Sweep, LadderFrontIsSubsetWithEqualRungOptima) {
  const check::ScenarioSpec spec = pareto_spec();
  const std::vector<double> ladder = {0.3, 0.5, 0.7, 0.9};
  pareto::SweepOptions opt;
  opt.pdr_ladder = ladder;

  dse::Evaluator ex_eval(spec.settings);
  const pareto::SweepResult ex =
      pareto::exhaustive_front(spec.scenario, ex_eval, opt);
  dse::Evaluator ld_eval(spec.settings);
  const pareto::SweepResult ld =
      pareto::ladder_front(spec.scenario, ld_eval, opt);
  EXPECT_TRUE(ld.complete);

  // Every ladder front point appears in the exhaustive front, bit-equal.
  for (const pareto::FrontPoint& p : ld.front) {
    const auto it = std::find_if(
        ex.front.begin(), ex.front.end(), [&](const pareto::FrontPoint& q) {
          return q.cfg.design_key() == p.cfg.design_key();
        });
    ASSERT_NE(it, ex.front.end()) << p.cfg.label();
    EXPECT_EQ(bits(it->power_mw), bits(p.power_mw));
    EXPECT_EQ(bits(it->pdr), bits(p.pdr));
    EXPECT_EQ(bits(it->p95_s), bits(p.p95_s));
  }
  // Per-rung certified optima match the exhaustive per-rung optima.
  ASSERT_EQ(ld.rungs.size(), ex.rungs.size());
  for (std::size_t i = 0; i < ld.rungs.size(); ++i) {
    SCOPED_TRACE("pdr_min " + std::to_string(ld.rungs[i].pdr_min));
    ASSERT_EQ(ld.rungs[i].feasible, ex.rungs[i].feasible);
    if (!ld.rungs[i].feasible) continue;
    EXPECT_EQ(ld.rungs[i].best.cfg.design_key(),
              ex.rungs[i].best.cfg.design_key());
    EXPECT_EQ(bits(ld.rungs[i].best.power_mw),
              bits(ex.rungs[i].best.power_mw));
    EXPECT_EQ(bits(ld.rungs[i].best.pdr), bits(ex.rungs[i].best.pdr));
    EXPECT_EQ(bits(ld.rungs[i].best.p95_s), bits(ex.rungs[i].best.p95_s));
  }
  // The ladder never simulates more than exhaustive.
  EXPECT_LE(ld.simulations, ex.simulations);
}

TEST(Sweep, WarmStoreRerunSimulatesNothing) {
  const check::ScenarioSpec spec = pareto_spec();
  const std::string path = testing::TempDir() + "/pareto_warm.histore";
  std::remove(path.c_str());  // TempDir persists across test runs
  pareto::SweepResult cold;
  {
    store::EvalStore st(path, store::StoreOptions{});
    dse::Evaluator eval(spec.settings);
    store::warm_start(eval, st);
    cold = pareto::exhaustive_front(spec.scenario, eval);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_GT(cold.simulations, 0u);
    st.sync();
  }
  store::EvalStore st(path, store::StoreOptions{});
  dse::Evaluator eval(spec.settings);
  store::warm_start(eval, st);
  const pareto::SweepResult warm =
      pareto::exhaustive_front(spec.scenario, eval);
  EXPECT_EQ(warm.simulations, 0u);
  EXPECT_EQ(warm.store_hits, cold.simulations);
  expect_same_points(warm.front, cold.front);
}

TEST(Sweep, ThreadCountInvariant) {
  const check::ScenarioSpec spec = pareto_spec();
  const auto run_at = [&](int threads) {
    dse::Evaluator eval(spec.settings);
    pareto::SweepOptions opt;
    opt.threads = threads;
    return pareto::exhaustive_front(spec.scenario, eval, opt);
  };
  const pareto::SweepResult serial = run_at(0);
  const pareto::SweepResult par = run_at(4);
  EXPECT_EQ(serial.simulations, par.simulations);
  expect_same_points(par.front, serial.front);
}

TEST(Sweep, LatencyOffFrontDegradesToTwoObjectives) {
  // With collection off every p95 is 0.0: dominance must behave as the
  // legacy (power, PDR) trade-off and nothing may crash or collect.
  check::ScenarioSpec spec = check::make_scenario(11);
  ASSERT_FALSE(spec.settings.sim.collect_latency);
  dse::Evaluator eval(spec.settings);
  const pareto::SweepResult res =
      pareto::exhaustive_front(spec.scenario, eval);
  ASSERT_FALSE(res.front.empty());
  for (const pareto::FrontPoint& p : res.front) {
    EXPECT_EQ(p.p95_s, 0.0);
  }
}

}  // namespace
}  // namespace hi
