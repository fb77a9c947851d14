// hi::crowd behavioural contracts (DESIGN.md §15): determinism,
// body-relabeling invariance, thread-count invariance of the sweep,
// store-backed resume, the crowd scenario JSON codec + fingerprints,
// the evaluation crowd tail, and the kernel's pending-event
// reservation.  Everything bitwise here is compared as uint64 bit
// patterns — no tolerances.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "crowd/crowd.hpp"
#include "des/kernel.hpp"
#include "model/design_space.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "store/crowd_codec.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace hi {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

model::NetworkConfig star_csma_n4() {
  const model::Scenario scenario;
  return scenario.make_config(model::Topology::from_locations({0, 1, 3, 5}), 1,
                              model::MacProtocol::kCsma,
                              model::RoutingProtocol::kStar);
}

model::CrowdScenario dense_crowd(int bodies) {
  model::CrowdScenario sc;
  sc.cfg = star_csma_n4();
  sc.bodies = bodies;
  sc.spacing_m = 0.5;
  return sc;
}

net::SimParams short_params(std::uint64_t seed = 2017) {
  net::SimParams sp;
  sp.duration_s = 5.0;
  sp.seed = seed;
  return sp;
}

void expect_same_result(const net::SimResult& a, const net::SimResult& b) {
  EXPECT_EQ(bits(a.pdr), bits(b.pdr));
  EXPECT_EQ(bits(a.worst_power_mw), bits(b.worst_power_mw));
  EXPECT_EQ(bits(a.mean_power_mw), bits(b.mean_power_mw));
  EXPECT_EQ(bits(a.nlt_s), bits(b.nlt_s));
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(bits(a.nodes[i].pdr), bits(b.nodes[i].pdr));
    EXPECT_EQ(bits(a.nodes[i].power_mw), bits(b.nodes[i].power_mw));
    EXPECT_EQ(a.nodes[i].app_sent, b.nodes[i].app_sent);
  }
}

TEST(Crowd, DeterministicAcrossRepeatedRuns) {
  const model::CrowdScenario sc = dense_crowd(3);
  const net::SimParams sp = short_params();
  const crowd::CrowdResult a =
      crowd::simulate_crowd(sc, *crowd::make_crowd_channel_for(sc, 7), sp);
  const crowd::CrowdResult b =
      crowd::simulate_crowd(sc, *crowd::make_crowd_channel_for(sc, 7), sp);
  expect_same_result(a.summary, b.summary);
  EXPECT_EQ(a.summary.events, b.summary.events);
  EXPECT_EQ(a.summary.crowd.foreign_heard, b.summary.crowd.foreign_heard);
  ASSERT_EQ(a.per_body.size(), b.per_body.size());
  for (std::size_t i = 0; i < a.per_body.size(); ++i) {
    expect_same_result(a.per_body[i], b.per_body[i]);
  }
}

TEST(Crowd, BodyRelabelingLeavesPerBodyResultsBitIdentical) {
  // Three bodies with distinct positions, listed in two different
  // orders.  perm[j] = index in the base list of the body that sits at
  // slot j of the permuted list.
  const std::vector<model::BodyPlacement> base_pos = {
      {0.0, 0.0}, {1.2, 0.4}, {0.3, 1.5}};
  const std::vector<int> perm = {2, 0, 1};

  model::CrowdScenario a = dense_crowd(3);
  a.placement = base_pos;
  model::CrowdScenario b = a;
  b.placement = {base_pos[perm[0]], base_pos[perm[1]], base_pos[perm[2]]};

  const net::SimParams sp = short_params(99);
  const crowd::CrowdResult ra =
      crowd::simulate_crowd(a, *crowd::make_crowd_channel_for(a, 11), sp);
  const crowd::CrowdResult rb =
      crowd::simulate_crowd(b, *crowd::make_crowd_channel_for(b, 11), sp);

  // The aggregate headline is permutation-invariant...
  EXPECT_EQ(bits(ra.summary.pdr), bits(rb.summary.pdr));
  EXPECT_EQ(bits(ra.summary.worst_power_mw), bits(rb.summary.worst_power_mw));
  EXPECT_EQ(bits(ra.summary.mean_power_mw), bits(rb.summary.mean_power_mw));
  EXPECT_EQ(bits(ra.summary.nlt_s), bits(rb.summary.nlt_s));
  EXPECT_EQ(ra.summary.events, rb.summary.events);
  EXPECT_EQ(bits(ra.summary.crowd.min_body_pdr),
            bits(rb.summary.crowd.min_body_pdr));
  EXPECT_EQ(ra.summary.crowd.foreign_heard, rb.summary.crowd.foreign_heard);
  // ...and each physical body's result is bit-identical wherever it
  // appears in the input list — both the full per_body entry and the
  // aggregate's per-body row (which reports in input order).
  for (int j = 0; j < 3; ++j) {
    SCOPED_TRACE(j);
    expect_same_result(rb.per_body[j], ra.per_body[perm[j]]);
    EXPECT_EQ(rb.summary.nodes[j].location, j);
    EXPECT_EQ(bits(rb.summary.nodes[j].pdr),
              bits(ra.summary.nodes[perm[j]].pdr));
    EXPECT_EQ(bits(rb.summary.nodes[j].power_mw),
              bits(ra.summary.nodes[perm[j]].power_mw));
  }
}

/// Whole-Evaluation bit equality: headline metrics, the detail's
/// metrics, events, medium, latency block, crowd ledger and every
/// per-body node row.
void expect_same_eval(const dse::Evaluation& a, const dse::Evaluation& b) {
  EXPECT_EQ(bits(a.pdr), bits(b.pdr));
  EXPECT_EQ(bits(a.power_mw), bits(b.power_mw));
  EXPECT_EQ(bits(a.nlt_s), bits(b.nlt_s));
  const net::SimResult& x = a.detail;
  const net::SimResult& y = b.detail;
  expect_same_result(x, y);
  EXPECT_EQ(bits(x.duration_s), bits(y.duration_s));
  EXPECT_EQ(x.events, y.events);
  EXPECT_EQ(x.medium.transmissions, y.medium.transmissions);
  EXPECT_EQ(x.medium.deliveries_offered, y.medium.deliveries_offered);
  EXPECT_EQ(x.medium.below_sensitivity, y.medium.below_sensitivity);
  EXPECT_EQ(x.medium.cross_offered, y.medium.cross_offered);
  EXPECT_EQ(x.medium.cross_below_sensitivity, y.medium.cross_below_sensitivity);
  EXPECT_EQ(x.latency.collected, y.latency.collected);
  EXPECT_EQ(x.latency.samples, y.latency.samples);
  EXPECT_EQ(bits(x.latency.mean_s), bits(y.latency.mean_s));
  EXPECT_EQ(bits(x.latency.p50_s), bits(y.latency.p50_s));
  EXPECT_EQ(bits(x.latency.p95_s), bits(y.latency.p95_s));
  EXPECT_EQ(bits(x.latency.max_s), bits(y.latency.max_s));
  EXPECT_EQ(x.crowd.present, y.crowd.present);
  EXPECT_EQ(x.crowd.bodies, y.crowd.bodies);
  EXPECT_EQ(bits(x.crowd.min_body_pdr), bits(y.crowd.min_body_pdr));
  EXPECT_EQ(x.crowd.cross_offered, y.crowd.cross_offered);
  EXPECT_EQ(x.crowd.cross_below_sensitivity, y.crowd.cross_below_sensitivity);
  EXPECT_EQ(x.crowd.foreign_heard, y.crowd.foreign_heard);
  EXPECT_EQ(x.crowd.foreign_decoded, y.crowd.foreign_decoded);
  ASSERT_EQ(x.nodes.size(), y.nodes.size());
  for (std::size_t i = 0; i < x.nodes.size(); ++i) {
    const net::NodeResult& u = x.nodes[i];
    const net::NodeResult& v = y.nodes[i];
    EXPECT_EQ(u.location, v.location);
    EXPECT_EQ(u.radio.tx_packets, v.radio.tx_packets);
    EXPECT_EQ(u.radio.rx_ok, v.radio.rx_ok);
    EXPECT_EQ(u.radio.rx_corrupted, v.radio.rx_corrupted);
    EXPECT_EQ(u.radio.rx_missed, v.radio.rx_missed);
    EXPECT_EQ(u.radio.rx_aborted, v.radio.rx_aborted);
    EXPECT_EQ(u.mac.enqueued, v.mac.enqueued);
    EXPECT_EQ(u.mac.sent, v.mac.sent);
    EXPECT_EQ(u.mac.dropped_buffer, v.mac.dropped_buffer);
    EXPECT_EQ(u.mac.backoffs, v.mac.backoffs);
    EXPECT_EQ(u.routing.originated, v.routing.originated);
    EXPECT_EQ(u.routing.delivered, v.routing.delivered);
    EXPECT_EQ(u.routing.duplicates, v.routing.duplicates);
    EXPECT_EQ(u.routing.relayed, v.routing.relayed);
  }
}

TEST(Crowd, SweepIsThreadCountInvariant) {
  // Three replications and a non-monotone body list, so a fold that
  // took runs in completion order or a point mapped to the wrong slot
  // of the largest-first schedule shows up as a bit difference.
  const model::CrowdScenario base = dense_crowd(3);
  net::SimParams sp = short_params();
  sp.collect_latency = true;
  const std::vector<int> list = {2, 1, 3};
  constexpr int kRuns = 3;

  std::vector<dse::Evaluation> want;
  for (int m : list) {
    want.push_back(crowd::to_evaluation(
        crowd::simulate_crowd_averaged(dense_crowd(m), sp, kRuns)));
  }

  std::map<std::string, std::uint64_t, std::less<>> ref_counters;
  for (int threads : {0, 1, 2, 3, 8}) {
    SCOPED_TRACE(threads);
    obs::MetricsRegistry metrics;
    std::vector<int> progressed;
    crowd::SweepOptions opt;
    opt.bodies = list;
    opt.runs = kRuns;
    opt.threads = threads;
    opt.metrics = &metrics;
    opt.progress = [&progressed](const crowd::SweepPoint& p) {
      progressed.push_back(p.bodies);
    };
    const crowd::SweepResult res = crowd::sweep(base, sp, opt);
    ASSERT_EQ(res.points.size(), list.size());
    EXPECT_EQ(progressed, list);
    EXPECT_EQ(res.simulations, list.size());
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      SCOPED_TRACE(list[i]);
      EXPECT_EQ(res.points[i].bodies, list[i]);
      EXPECT_FALSE(res.points[i].from_store);
      expect_same_eval(res.points[i].eval, want[i]);
    }

    // Every counter is an exact sum over runs: the schedule must not
    // show in des.events, net.crowd_runs or crowd.*.
    const obs::Snapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("net.runs"), list.size() * kRuns);
    EXPECT_EQ(snap.counter("net.crowd_runs"), 2u * kRuns);
    EXPECT_EQ(snap.counter("crowd.points"), list.size());
    EXPECT_EQ(snap.counter("crowd.simulations"), list.size());
    EXPECT_GT(snap.counter("des.events"), 0u);
    if (threads == 0) {
      ref_counters = snap.counters;
    } else {
      EXPECT_EQ(snap.counters, ref_counters);
    }
  }
}

TEST(Crowd, PartlyWarmSweepFansOutOnlyMissesAndCommitsInOrder) {
  const std::string path = "test_crowd_partly_warm.store";
  std::remove(path.c_str());
  const model::CrowdScenario base = dense_crowd(3);
  const net::SimParams sp = short_params();
  constexpr int kRuns = 3;
  {
    store::EvalStore store(path);
    crowd::SweepOptions opt;
    opt.bodies = {2};
    opt.runs = kRuns;
    opt.store = &store;
    ASSERT_EQ(crowd::sweep(base, sp, opt).simulations, 1u);
  }

  const std::vector<int> list = {2, 1, 3};
  store::EvalStore store(path);
  obs::MetricsRegistry metrics;
  std::vector<int> progressed;
  crowd::SweepOptions opt;
  opt.bodies = list;
  opt.runs = kRuns;
  opt.threads = 3;
  opt.store = &store;
  opt.metrics = &metrics;
  opt.progress = [&](const crowd::SweepPoint& p) {
    // Write-through precedes progress: the point is already stored.
    EXPECT_NE(store.find(store::crowd_point_fingerprint(dense_crowd(p.bodies),
                                                        sp, kRuns),
                         base.cfg),
              nullptr);
    progressed.push_back(p.bodies);
  };
  const crowd::SweepResult res = crowd::sweep(base, sp, opt);
  EXPECT_EQ(progressed, list);
  EXPECT_EQ(res.store_hits, 1u);
  EXPECT_EQ(res.simulations, 2u);
  EXPECT_TRUE(res.points[0].from_store);
  EXPECT_FALSE(res.points[1].from_store);
  EXPECT_FALSE(res.points[2].from_store);
  for (std::size_t i = 0; i < list.size(); ++i) {
    SCOPED_TRACE(list[i]);
    dse::Evaluation want = crowd::to_evaluation(
        crowd::simulate_crowd_averaged(dense_crowd(list[i]), sp, kRuns));
    if (res.points[i].from_store) {
      // The store keeps the cross-body counts in the crowd ledger only.
      want.detail.medium.cross_offered = 0;
      want.detail.medium.cross_below_sensitivity = 0;
    }
    expect_same_eval(res.points[i].eval, want);
  }
  // Only the two misses ran: M = 1 and M = 3, kRuns runs each, and only
  // M = 3 is a multi-body run.
  const obs::Snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("net.runs"), 2u * kRuns);
  EXPECT_EQ(snap.counter("net.crowd_runs"), 1u * kRuns);
  EXPECT_EQ(snap.counter("crowd.store_hits"), 1u);
  EXPECT_EQ(snap.counter("crowd.simulations"), 2u);
  EXPECT_EQ(store.eval_count(), list.size());
  std::remove(path.c_str());
}

TEST(Crowd, SweepResumesFromStoreWithoutResimulating) {
  const std::string path = "test_crowd_resume.store";
  std::remove(path.c_str());
  const model::CrowdScenario base = dense_crowd(3);
  const net::SimParams sp = short_params();

  crowd::SweepResult cold;
  {
    store::EvalStore store(path);
    crowd::SweepOptions opt;
    opt.bodies = {1, 2, 3};
    opt.runs = 1;
    opt.store = &store;
    cold = crowd::sweep(base, sp, opt);
    EXPECT_EQ(cold.simulations, 3u);
    EXPECT_EQ(cold.store_hits, 0u);
  }
  {
    store::EvalStore store(path);
    obs::MetricsRegistry metrics;
    crowd::SweepOptions opt;
    opt.bodies = {1, 2, 3};
    opt.runs = 1;
    opt.store = &store;
    opt.metrics = &metrics;
    const crowd::SweepResult warm = crowd::sweep(base, sp, opt);
    EXPECT_EQ(warm.simulations, 0u);
    EXPECT_EQ(warm.store_hits, 3u);
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
      EXPECT_TRUE(warm.points[i].from_store);
      EXPECT_EQ(bits(warm.points[i].eval.pdr), bits(cold.points[i].eval.pdr));
      EXPECT_EQ(bits(warm.points[i].eval.power_mw),
                bits(cold.points[i].eval.power_mw));
      EXPECT_EQ(bits(warm.points[i].eval.detail.crowd.min_body_pdr),
                bits(cold.points[i].eval.detail.crowd.min_body_pdr));
    }
    EXPECT_EQ(metrics.counter("crowd.points").value(), 3u);
    EXPECT_EQ(metrics.counter("crowd.store_hits").value(), 3u);
    EXPECT_EQ(metrics.counter("dse.store_hits").value(), 3u);
    EXPECT_EQ(metrics.counter("crowd.simulations").value(), 0u);
  }
  std::remove(path.c_str());
}

TEST(Crowd, DenseCrowdCollapsesPdr) {
  const net::SimParams sp = short_params();
  const model::CrowdScenario one = dense_crowd(1);
  const model::CrowdScenario four = dense_crowd(4);
  const crowd::CrowdResult r1 =
      crowd::simulate_crowd(one, *crowd::make_crowd_channel_for(one, 5), sp);
  const crowd::CrowdResult r4 =
      crowd::simulate_crowd(four, *crowd::make_crowd_channel_for(four, 5), sp);
  EXPECT_GT(r4.summary.crowd.cross_offered, 0u);
  EXPECT_GT(r4.summary.crowd.foreign_heard, 0u);
  EXPECT_LT(r4.summary.pdr, r1.summary.pdr);
  EXPECT_LE(r4.summary.crowd.min_body_pdr, r4.summary.pdr);
}

TEST(Crowd, ToEvaluationCarriesHeadlineMetrics) {
  const model::CrowdScenario sc = dense_crowd(2);
  const crowd::CrowdResult cr = crowd::simulate_crowd(
      sc, *crowd::make_crowd_channel_for(sc, 3), short_params());
  const dse::Evaluation ev = crowd::to_evaluation(cr);
  EXPECT_EQ(bits(ev.pdr), bits(cr.summary.pdr));
  EXPECT_EQ(bits(ev.power_mw), bits(cr.summary.worst_power_mw));
  EXPECT_EQ(bits(ev.nlt_s), bits(cr.summary.nlt_s));
  EXPECT_TRUE(ev.detail.crowd.present);
  EXPECT_EQ(ev.detail.crowd.bodies, 2);
}

TEST(Crowd, ScenarioValidationRejectsBadInput) {
  model::CrowdScenario sc = dense_crowd(2);
  sc.bodies = 0;
  EXPECT_THROW(sc.validate(), ModelError);
  sc.bodies = 65;
  EXPECT_THROW(sc.validate(), ModelError);
  sc = dense_crowd(2);
  sc.spacing_m = 0.0;
  EXPECT_THROW(sc.validate(), ModelError);
  sc = dense_crowd(2);
  sc.placement = {{0.0, 0.0}};  // wrong size for bodies == 2
  EXPECT_THROW(sc.validate(), ModelError);
  sc = dense_crowd(2);
  sc.inter.exponent = 0.0;
  EXPECT_THROW(sc.validate(), ModelError);
}

TEST(CrowdCodec, ScenarioJsonRoundTripsExactly) {
  model::CrowdScenario sc = dense_crowd(3);
  sc.cols = 2;
  sc.inter.exponent = 3.5;
  sc.inter.sigma_db = 4.25;
  const std::string json = store::crowd_scenario_to_json(sc);
  std::string err;
  const auto back = store::crowd_scenario_from_json(json, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, sc);
  EXPECT_EQ(store::crowd_fingerprint(*back).hex(),
            store::crowd_fingerprint(sc).hex());

  // Explicit placement survives the trip too.
  sc.placement = {{0.0, 0.0}, {0.5, 0.0}, {0.25, 0.75}};
  const auto back2 =
      store::crowd_scenario_from_json(store::crowd_scenario_to_json(sc), &err);
  ASSERT_TRUE(back2.has_value()) << err;
  EXPECT_EQ(*back2, sc);
}

TEST(CrowdCodec, RejectsMalformedScenarios) {
  std::string err;
  EXPECT_FALSE(store::crowd_scenario_from_json("not json", &err).has_value());
  EXPECT_FALSE(store::crowd_scenario_from_json("{}", &err).has_value());
  // Unknown keys are rejected, not ignored.
  model::CrowdScenario sc = dense_crowd(2);
  std::string json = store::crowd_scenario_to_json(sc);
  json.insert(json.find('{') + 1, "\"surprise\": 1,");
  EXPECT_FALSE(store::crowd_scenario_from_json(json, &err).has_value());
}

TEST(CrowdCodec, GridAndEquivalentExplicitPlacementFingerprintIdentically) {
  model::CrowdScenario grid = dense_crowd(4);
  grid.cols = 2;
  model::CrowdScenario explicit_sc = grid;
  explicit_sc.placement = grid.positions();
  EXPECT_EQ(store::crowd_fingerprint(grid).hex(),
            store::crowd_fingerprint(explicit_sc).hex());
}

TEST(CrowdCodec, PointFingerprintSeparatesBodiesRunsAndSeeds) {
  const net::SimParams sp = short_params();
  const model::CrowdScenario two = dense_crowd(2);
  const model::CrowdScenario three = dense_crowd(3);
  const auto base = store::crowd_point_fingerprint(two, sp, 3);
  EXPECT_NE(store::crowd_point_fingerprint(three, sp, 3).hex(), base.hex());
  EXPECT_NE(store::crowd_point_fingerprint(two, sp, 4).hex(), base.hex());
  net::SimParams sp2 = sp;
  sp2.seed = sp.seed + 1;
  EXPECT_NE(store::crowd_point_fingerprint(two, sp2, 3).hex(), base.hex());
  EXPECT_EQ(store::crowd_point_fingerprint(two, sp, 3).hex(), base.hex());
}

dse::Evaluation sample_eval(bool with_crowd, bool with_latency) {
  dse::Evaluation ev;
  ev.pdr = 0.875;
  ev.power_mw = 1.25;
  ev.nlt_s = 123456.5;
  ev.detail.pdr = 0.875;
  ev.detail.worst_power_mw = 1.25;
  ev.detail.mean_power_mw = 1.0;
  ev.detail.nlt_s = 123456.5;
  ev.detail.duration_s = 60.0;
  ev.detail.events = 4242;
  net::NodeResult n;
  n.location = 3;
  n.pdr = 0.75;
  n.power_mw = 1.5;
  n.app_sent = 100;
  ev.detail.nodes.push_back(n);
  if (with_latency) {
    ev.detail.latency.collected = true;
    ev.detail.latency.samples = 42;
    ev.detail.latency.mean_s = 0.01;
    ev.detail.latency.p50_s = 0.008;
    ev.detail.latency.p95_s = 0.02;
    ev.detail.latency.max_s = 0.05;
  }
  if (with_crowd) {
    ev.detail.crowd.present = true;
    ev.detail.crowd.bodies = 4;
    ev.detail.crowd.min_body_pdr = 0.5;
    ev.detail.crowd.cross_offered = 1000;
    ev.detail.crowd.cross_below_sensitivity = 10;
    ev.detail.crowd.foreign_heard = 900;
    ev.detail.crowd.foreign_decoded = 800;
  }
  return ev;
}

void expect_crowd_tail_roundtrip(bool with_latency) {
  const dse::Evaluation ev = sample_eval(true, with_latency);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  EXPECT_TRUE(back.detail.crowd.present);
  EXPECT_EQ(back.detail.crowd.bodies, 4);
  EXPECT_EQ(bits(back.detail.crowd.min_body_pdr), bits(0.5));
  EXPECT_EQ(back.detail.crowd.cross_offered, 1000u);
  EXPECT_EQ(back.detail.crowd.cross_below_sensitivity, 10u);
  EXPECT_EQ(back.detail.crowd.foreign_heard, 900u);
  EXPECT_EQ(back.detail.crowd.foreign_decoded, 800u);
  EXPECT_EQ(back.detail.latency.collected, with_latency);
  if (with_latency) {
    EXPECT_EQ(back.detail.latency.samples, 42u);
    EXPECT_EQ(bits(back.detail.latency.p95_s), bits(0.02));
  }
  EXPECT_EQ(bits(back.pdr), bits(ev.pdr));
  EXPECT_EQ(back.detail.events, ev.detail.events);
}

TEST(CrowdSerialize, EvaluationCrowdTailRoundTripsWithoutLatency) {
  expect_crowd_tail_roundtrip(/*with_latency=*/false);
}

TEST(CrowdSerialize, EvaluationCrowdTailRoundTripsWithLatency) {
  expect_crowd_tail_roundtrip(/*with_latency=*/true);
}

TEST(CrowdSerialize, LegacyEvaluationStillReadsWithCrowdAbsent) {
  const dse::Evaluation ev = sample_eval(false, false);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  EXPECT_FALSE(back.detail.crowd.present);
  EXPECT_EQ(back.detail.crowd.bodies, 0);
  EXPECT_EQ(bits(back.pdr), bits(ev.pdr));
}

TEST(CrowdSerialize, TrailingGarbageAfterLatencyTailIsRejected) {
  const dse::Evaluation ev = sample_eval(false, true);
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  // Unmarked extra bytes after the latency tail must not silently pass
  // as a crowd tail.
  w.put_u64(0xDEADBEEF);
  store::ByteReader r(w.bytes());
  dse::Evaluation back;
  EXPECT_FALSE(store::read_evaluation(r, back));
}

TEST(KernelReserve, PreSizingChangesOnlyArenaChunks) {
  // Two kernels, identical workload, one pre-sized: execution order and
  // every counter except arena_chunks() must agree.
  auto run = [](des::Kernel& k, std::vector<double>& order) {
    for (int i = 0; i < 600; ++i) {
      const double t = static_cast<double>((i * 37) % 600) * 1e-3;
      k.schedule_at(t, [&order, t] { order.push_back(t); });
    }
    k.run_to_completion();
  };
  des::Kernel plain;
  std::vector<double> plain_order;
  run(plain, plain_order);

  des::Kernel reserved;
  reserved.reserve(1000);
  // 1000 pending events need ceil(1000 / 256) = 4 slabs up front.
  EXPECT_EQ(reserved.arena_chunks(), 4u);
  std::vector<double> reserved_order;
  run(reserved, reserved_order);

  EXPECT_EQ(plain_order, reserved_order);
  EXPECT_EQ(plain.events_processed(), reserved.events_processed());
  EXPECT_EQ(reserved.arena_chunks(), 4u);  // no mid-run growth
  EXPECT_LT(plain.arena_chunks(), 4u);     // grew lazily: 600 ≤ 3 slabs
}

}  // namespace
}  // namespace hi
