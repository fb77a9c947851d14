// End-to-end latency metric (net/latency.hpp, DESIGN.md §14).
//
// The contract under test: latency collection is OFF by default and the
// off path is bit-identical to the pre-latency simulator (the golden
// rows in test_sim_golden pin that independently); turning it ON changes
// no other output bit — PDR, powers, lifetime, event counts, and every
// counter stay exactly what the off run produced — at any thread count
// and any realization count.  The store tail round-trips exactly and
// latency-off records keep the legacy byte layout and settings
// fingerprint.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.hpp"
#include "dse/evaluator.hpp"
#include "dse/robustness.hpp"
#include "model/design_space.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "store/serialize.hpp"

namespace hi {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

model::NetworkConfig small_config(const model::Scenario& scenario) {
  return scenario.make_config(model::Topology::from_locations({0, 1, 3, 5}),
                              1, model::MacProtocol::kCsma,
                              model::RoutingProtocol::kStar);
}

net::SimParams short_params() {
  net::SimParams sp;
  sp.duration_s = 5.0;
  sp.seed = 2017;
  return sp;
}

TEST(Latency, OffByDefaultAndEmpty) {
  const model::Scenario scenario;
  const net::SimParams sp = short_params();
  ASSERT_FALSE(sp.collect_latency);
  const net::SimResult res = net::simulate(
      small_config(scenario), *net::default_channel_factory()(1), sp);
  EXPECT_FALSE(res.latency.collected);
  EXPECT_EQ(res.latency.samples, 0u);
  EXPECT_EQ(res.latency.p95_s, 0.0);
}

TEST(Latency, CollectionChangesNoOtherOutputBit) {
  const model::Scenario scenario;
  const model::NetworkConfig cfg = small_config(scenario);
  net::SimParams off = short_params();
  net::SimParams on = off;
  on.collect_latency = true;
  const net::SimResult a =
      net::simulate(cfg, *net::default_channel_factory()(7), off);
  const net::SimResult b =
      net::simulate(cfg, *net::default_channel_factory()(7), on);
  EXPECT_EQ(bits(a.pdr), bits(b.pdr));
  EXPECT_EQ(bits(a.worst_power_mw), bits(b.worst_power_mw));
  EXPECT_EQ(bits(a.mean_power_mw), bits(b.mean_power_mw));
  EXPECT_EQ(bits(a.nlt_s), bits(b.nlt_s));
  EXPECT_EQ(a.events, b.events);
  ASSERT_TRUE(b.latency.collected);
  ASSERT_GT(b.latency.samples, 0u);
  // Nearest-rank quantiles of a nonempty sample are ordered and positive.
  EXPECT_GT(b.latency.p50_s, 0.0);
  EXPECT_LE(b.latency.p50_s, b.latency.p95_s);
  EXPECT_LE(b.latency.p95_s, b.latency.max_s);
  EXPECT_GT(b.latency.mean_s, 0.0);
  EXPECT_LE(b.latency.mean_s, b.latency.max_s);
}

TEST(Latency, AveragedFoldIsDeterministic) {
  const model::Scenario scenario;
  const model::NetworkConfig cfg = small_config(scenario);
  net::SimParams sp = short_params();
  sp.collect_latency = true;
  const net::SimResult a = net::simulate_averaged(cfg, sp, 2);
  const net::SimResult b = net::simulate_averaged(cfg, sp, 2);
  ASSERT_TRUE(a.latency.collected);
  EXPECT_EQ(a.latency.samples, b.latency.samples);
  EXPECT_EQ(bits(a.latency.mean_s), bits(b.latency.mean_s));
  EXPECT_EQ(bits(a.latency.p50_s), bits(b.latency.p50_s));
  EXPECT_EQ(bits(a.latency.p95_s), bits(b.latency.p95_s));
  EXPECT_EQ(bits(a.latency.max_s), bits(b.latency.max_s));
}

dse::EvaluatorSettings latency_settings() {
  dse::EvaluatorSettings s;
  s.sim = short_params();
  s.sim.collect_latency = true;
  s.runs = 2;
  return s;
}

TEST(Latency, ThreadCountInvariant) {
  const model::Scenario scenario;
  const std::vector<model::NetworkConfig> cfgs = scenario.feasible_configs();
  ASSERT_FALSE(cfgs.empty());
  const auto run_at = [&](int threads) {
    dse::Evaluator eval(latency_settings());
    dse::RobustBatch batch(eval, threads, {});
    std::vector<net::LatencySummary> out;
    for (const dse::RobustEvaluation& rev : batch.evaluate(cfgs)) {
      out.push_back(rev.nominal.detail.latency);
    }
    return out;
  };
  const std::vector<net::LatencySummary> serial = run_at(0);
  const std::vector<net::LatencySummary> par = run_at(4);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(cfgs[i].label());
    EXPECT_TRUE(serial[i].collected);
    EXPECT_EQ(serial[i].samples, par[i].samples);
    EXPECT_EQ(bits(serial[i].mean_s), bits(par[i].mean_s));
    EXPECT_EQ(bits(serial[i].p50_s), bits(par[i].p50_s));
    EXPECT_EQ(bits(serial[i].p95_s), bits(par[i].p95_s));
    EXPECT_EQ(bits(serial[i].max_s), bits(par[i].max_s));
  }
}

TEST(Latency, RealizationCountInvariantForNominal) {
  // Growing K only adds realizations: the nominal p95 (realization 0)
  // must not move, and the worst-case p95 can only grow.
  const model::Scenario scenario;
  const model::NetworkConfig cfg = small_config(scenario);
  const auto run_k = [&](int k) {
    dse::Evaluator eval(latency_settings());
    dse::RobustnessOptions robust;
    robust.realizations = k;
    dse::RobustBatch rb(eval, 0, robust);
    return rb.evaluate_one(cfg);
  };
  const dse::RobustEvaluation k1 = run_k(1);
  const dse::RobustEvaluation k3 = run_k(3);
  ASSERT_TRUE(k1.nominal.detail.latency.collected);
  EXPECT_EQ(bits(k1.nominal.detail.latency.p95_s),
            bits(k3.nominal.detail.latency.p95_s));
  // K=1, Γ=0 collapse: the robust latency objective IS the nominal p95.
  EXPECT_EQ(bits(k1.worst_p95_s), bits(k1.nominal.detail.latency.p95_s));
  EXPECT_GE(k3.worst_p95_s, k1.worst_p95_s);
}

TEST(Latency, EvaluationTailRoundTripsExactly) {
  const model::Scenario scenario;
  dse::Evaluator eval(latency_settings());
  const dse::Evaluation& ev = eval.evaluate(small_config(scenario));
  ASSERT_TRUE(ev.detail.latency.collected);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  ASSERT_TRUE(r.at_end());
  ASSERT_TRUE(back.detail.latency.collected);
  EXPECT_EQ(back.detail.latency.samples, ev.detail.latency.samples);
  EXPECT_EQ(bits(back.detail.latency.mean_s), bits(ev.detail.latency.mean_s));
  EXPECT_EQ(bits(back.detail.latency.p50_s), bits(ev.detail.latency.p50_s));
  EXPECT_EQ(bits(back.detail.latency.p95_s), bits(ev.detail.latency.p95_s));
  EXPECT_EQ(bits(back.detail.latency.max_s), bits(ev.detail.latency.max_s));
  EXPECT_EQ(bits(back.pdr), bits(ev.pdr));
  EXPECT_EQ(bits(back.power_mw), bits(ev.power_mw));
  EXPECT_EQ(bits(back.nlt_s), bits(ev.nlt_s));
}

TEST(Latency, OffRecordsKeepTheLegacyLayout) {
  // A latency-off evaluation serializes WITHOUT the tail — the record is
  // byte-identical to the pre-latency format — and decodes as
  // uncollected.
  const model::Scenario scenario;
  dse::EvaluatorSettings s = latency_settings();
  s.sim.collect_latency = false;
  dse::Evaluator eval(s);
  const dse::Evaluation& ev = eval.evaluate(small_config(scenario));
  ASSERT_FALSE(ev.detail.latency.collected);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  // The tail is 1×u64 + 4×f64 = 40 bytes; prove it is absent by writing
  // the same evaluation with a forged collected bit and diffing sizes.
  dse::Evaluation forged = ev;
  forged.detail.latency.collected = true;
  store::ByteWriter w2;
  store::write_evaluation(w2, forged);
  EXPECT_EQ(w2.bytes().size(), w.bytes().size() + 40);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  ASSERT_TRUE(r.at_end());
  EXPECT_FALSE(back.detail.latency.collected);
  EXPECT_EQ(back.detail.latency.samples, 0u);
}

TEST(Latency, SettingsFingerprintGatesOnCollection) {
  // Latency-off settings keep their pre-latency fingerprint (the marker
  // is conditional), so existing stores stay valid; latency-on settings
  // get a distinct fingerprint, so the two kinds of record never mix.
  dse::EvaluatorSettings off;
  off.sim.seed = 42;
  dse::EvaluatorSettings on = off;
  on.sim.collect_latency = true;
  const store::Digest fp_off = store::settings_fingerprint(off, "default");
  const store::Digest fp_on = store::settings_fingerprint(on, "default");
  EXPECT_NE(fp_off, fp_on);
  // Flipping the flag back restores the original digest bit for bit.
  on.sim.collect_latency = false;
  EXPECT_EQ(store::settings_fingerprint(on, "default"), fp_off);
}

TEST(Latency, GoldenCoreMetricsUnchangedWithCollectionOn) {
  // The first golden row of test_sim_golden, re-run WITH latency
  // collection: every pinned bit must still match — collection observes
  // the run, it never perturbs it.
  const model::Scenario scenario;
  const auto cfg = scenario.make_config(
      model::Topology::from_locations({0, 1, 3, 5}), 1,
      model::MacProtocol::kCsma, model::RoutingProtocol::kStar);
  net::SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 2017;
  sp.collect_latency = true;
  const net::SimResult one =
      net::simulate(cfg, *net::default_channel_factory()(2017 ^ 0xABCDEF), sp);
  EXPECT_EQ(bits(one.pdr), 0x3fea433788cde234ull);
  EXPECT_EQ(bits(one.worst_power_mw), 0x3fe8edc28f5c1f66ull);
  EXPECT_EQ(bits(one.mean_power_mw), 0x3fe4f23d70a3cfaeull);
  EXPECT_EQ(bits(one.nlt_s), 0x4147cc5cfcfbc968ull);
  EXPECT_EQ(one.events, 5406u);
  EXPECT_TRUE(one.latency.collected);
  EXPECT_GT(one.latency.samples, 0u);
}

}  // namespace
}  // namespace hi
