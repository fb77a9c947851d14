// Tier-1 guarantee of the hi::exec batch engine: explorer results are
// bit-identical to serial at any thread count — same best configuration,
// same PDR/power/NLT to the last bit, same simulation and cache-hit
// counters, and the same candidate history in the same order.  The
// mechanism under test: seeds derive from design_key(), all design
// points share one channel-realization root (common random numbers),
// and dse::RobustBatch commits results in request order.
#include <gtest/gtest.h>

#include <vector>

#include "check/properties.hpp"
#include "check/scenario_gen.hpp"
#include "dse/explorer.hpp"

namespace hi::dse {
namespace {

EvaluatorSettings fast_settings() {
  EvaluatorSettings s;
  s.sim.duration_s = 4.0;
  s.sim.seed = 2017;
  s.runs = 2;
  return s;
}

model::Scenario small_scenario() {
  model::Scenario sc;
  sc.max_nodes = 4;  // shrink the sweep so four full runs stay fast
  return sc;
}

/// Everything determinism must preserve, captured from one run.
struct RunFingerprint {
  ExplorationResult result;
  std::uint64_t simulations = 0;
  std::uint64_t cache_hits = 0;
};

void expect_identical(const RunFingerprint& serial, const RunFingerprint& par,
                      int threads) {
  SCOPED_TRACE(::testing::Message() << "threads=" << threads);
  const ExplorationResult& a = serial.result;
  const ExplorationResult& b = par.result;
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.best.design_key(), b.best.design_key());
  // EXPECT_EQ on doubles is exact comparison: bit-identical or bust.
  EXPECT_EQ(a.best_power_mw, b.best_power_mw);
  EXPECT_EQ(a.best_pdr, b.best_pdr);
  EXPECT_EQ(a.best_nlt_s, b.best_nlt_s);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(serial.simulations, par.simulations);
  EXPECT_EQ(serial.cache_hits, par.cache_hits);
  // The run snapshots mirror the evaluator counters exactly — the
  // atomic metric sums are thread-count-invariant too.
  EXPECT_EQ(a.metrics.counter("dse.simulations"), a.simulations);
  EXPECT_EQ(b.metrics.counter("dse.simulations"), b.simulations);
  EXPECT_EQ(a.metrics.counter("dse.cache_hits"),
            b.metrics.counter("dse.cache_hits"));
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].cfg.design_key(), b.history[i].cfg.design_key());
    EXPECT_EQ(a.history[i].sim_pdr, b.history[i].sim_pdr);
    EXPECT_EQ(a.history[i].sim_power_mw, b.history[i].sim_power_mw);
    EXPECT_EQ(a.history[i].sim_nlt_s, b.history[i].sim_nlt_s);
  }
}

RunFingerprint exhaustive_at(int threads) {
  Evaluator eval(fast_settings());
  RunFingerprint fp;
  ExplorationOptions opt;
  opt.pdr_min = 0.9;
  opt.threads = threads;
  fp.result = run_exhaustive(small_scenario(), eval, opt);
  fp.simulations = eval.simulations();
  fp.cache_hits = eval.cache_hits();
  return fp;
}

RunFingerprint algorithm1_at(int threads) {
  Evaluator eval(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 0.9;
  opt.threads = threads;
  RunFingerprint fp;
  fp.result = run_algorithm1(small_scenario(), eval, opt);
  fp.simulations = eval.simulations();
  fp.cache_hits = eval.cache_hits();
  return fp;
}

TEST(ExecDeterminism, ExhaustiveSearchIsThreadCountInvariant) {
  const RunFingerprint serial = exhaustive_at(0);
  ASSERT_TRUE(serial.result.feasible);
  EXPECT_GT(serial.result.simulations, 0u);
  for (const int threads : {1, 2, 8}) {
    expect_identical(serial, exhaustive_at(threads), threads);
  }
}

TEST(ExecDeterminism, Algorithm1IsThreadCountInvariant) {
  const RunFingerprint serial = algorithm1_at(0);
  ASSERT_TRUE(serial.result.feasible);
  EXPECT_GT(serial.result.simulations, 0u);
  for (const int threads : {1, 2, 8}) {
    expect_identical(serial, algorithm1_at(threads), threads);
  }
}

TEST(ExecDeterminism, GeneratedScenariosAreThreadCountInvariant) {
  // ScenarioGen instances (random chips, coverage groups, placements)
  // through the full hi::check determinism property: bit-identical
  // ExplorationResult and equal counter snapshots at 1 and 4 workers
  // (exec.* scheduling counters excluded by the property itself).
  for (const std::uint64_t seed : {901ULL, 902ULL}) {
    const check::ScenarioSpec spec = check::make_scenario(seed);
    for (const int threads : {1, 4}) {
      for (const std::string& v :
           check::check_thread_determinism(spec, threads)) {
        ADD_FAILURE() << spec.summary() << " at " << threads
                      << " threads: " << v;
      }
    }
  }
}

}  // namespace
}  // namespace hi::dse
