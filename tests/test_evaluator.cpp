// Unit tests for the simulation evaluator cache (dse/evaluator.hpp).
#include "dse/evaluator.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "model/design_space.hpp"

namespace hi::dse {
namespace {

EvaluatorSettings fast_settings() {
  EvaluatorSettings s;
  s.sim.duration_s = 10.0;
  s.sim.seed = 17;
  s.runs = 2;
  return s;
}

model::NetworkConfig some_config(int lvl = 2) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), lvl,
                        model::MacProtocol::kCsma,
                        model::RoutingProtocol::kStar);
}

TEST(Evaluator, CachesRepeatEvaluations) {
  Evaluator ev(fast_settings());
  const Evaluation& a = ev.evaluate(some_config());
  EXPECT_EQ(ev.simulations(), 1u);
  EXPECT_EQ(ev.cache_hits(), 0u);
  const Evaluation& b = ev.evaluate(some_config());
  EXPECT_EQ(ev.simulations(), 1u);
  EXPECT_EQ(ev.cache_hits(), 1u);
  EXPECT_DOUBLE_EQ(a.pdr, b.pdr);
  EXPECT_DOUBLE_EQ(a.power_mw, b.power_mw);
}

TEST(Evaluator, DistinctConfigsAreDistinctSimulations) {
  Evaluator ev(fast_settings());
  (void)ev.evaluate(some_config(0));
  (void)ev.evaluate(some_config(1));
  (void)ev.evaluate(some_config(2));
  EXPECT_EQ(ev.simulations(), 3u);
}

TEST(Evaluator, ResultIndependentOfEvaluationOrder) {
  // Seeds are derived from the design key, so evaluation order must not
  // change any result.
  Evaluator ev1(fast_settings());
  Evaluator ev2(fast_settings());
  const double a0 = ev1.evaluate(some_config(0)).pdr;
  const double a2 = ev1.evaluate(some_config(2)).pdr;
  const double b2 = ev2.evaluate(some_config(2)).pdr;
  const double b0 = ev2.evaluate(some_config(0)).pdr;
  EXPECT_DOUBLE_EQ(a0, b0);
  EXPECT_DOUBLE_EQ(a2, b2);
}

TEST(Evaluator, ResetCountersStartsNewEpochButKeepsCache) {
  Evaluator ev(fast_settings());
  const Evaluation& first = ev.evaluate(some_config());
  const double pdr = first.pdr;
  ev.reset_counters();
  EXPECT_EQ(ev.simulations(), 0u);
  // A new epoch counts the design point again — the requester would have
  // needed the simulation — but serves it from the cache.
  const Evaluation& again = ev.evaluate(some_config());
  EXPECT_EQ(ev.simulations(), 1u);
  EXPECT_EQ(ev.cache_hits(), 1u);
  EXPECT_DOUBLE_EQ(again.pdr, pdr);
  // Within the epoch, repeats stay free.
  (void)ev.evaluate(some_config());
  EXPECT_EQ(ev.simulations(), 1u);
  EXPECT_EQ(ev.cache_hits(), 2u);
}

TEST(Evaluator, EvaluationCarriesConsistentMetrics) {
  Evaluator ev(fast_settings());
  const Evaluation& e = ev.evaluate(some_config());
  EXPECT_GE(e.pdr, 0.0);
  EXPECT_LE(e.pdr, 1.0);
  EXPECT_GT(e.power_mw, 0.0);
  EXPECT_GT(e.nlt_s, 0.0);
  EXPECT_DOUBLE_EQ(e.pdr, e.detail.pdr);
  EXPECT_DOUBLE_EQ(e.power_mw, e.detail.worst_power_mw);
}

TEST(Evaluator, ReturnedReferencesAreStableAcrossLaterEvaluations) {
  // Documented contract (evaluator.hpp): annealing holds an Evaluation
  // reference across subsequent evaluate() calls, and RobustBatch
  // folds pointers into the cache.  Safe only because the cache is a
  // node-based std::unordered_map — pin it with enough insertions to
  // force several rehashes.
  Evaluator ev(fast_settings());
  const Evaluation& first = ev.evaluate(some_config(0));
  const Evaluation* first_addr = &first;
  const double pdr = first.pdr;
  model::Scenario sc;
  for (const model::Topology& t : sc.feasible_topologies()) {
    (void)ev.evaluate(sc.make_config(t, 0, model::MacProtocol::kTdma,
                                     model::RoutingProtocol::kMesh));
  }
  const Evaluation& again = ev.evaluate(some_config(0));
  EXPECT_EQ(&again, first_addr);
  EXPECT_EQ(again.pdr, pdr);
}

TEST(Evaluator, RejectsBadSettings) {
  EvaluatorSettings s = fast_settings();
  s.runs = 0;
  EXPECT_THROW(Evaluator{s}, ModelError);
  s = fast_settings();
  s.channel = nullptr;
  EXPECT_THROW(Evaluator{s}, ModelError);
}

}  // namespace
}  // namespace hi::dse
