// Golden bit-exact crowd fingerprints (DESIGN.md §15).
//
// Two contracts are pinned here.  First, the M=1 collapse: a crowd of
// one body must reproduce the *existing* single-body golden rows (see
// test_sim_golden.cpp) bit for bit — same doubles, same event counts —
// because both are the one driver, net::detail::run_bodies, body 0's
// RNG lane IS params.seed, and the crowd channel degenerates to the
// single BodyChannel — down to the counters the run flushes.  Second, new multi-body rows pin the
// coexistence machinery itself for M ∈ {2, 4, 8}: batched cross-body
// fades, SINR under foreign interference, and the net-id decode filter.
// As with the single-body rows: if a future change breaks a row on
// purpose, regenerate (DISABLED_RecordMultiBodyRows prints paste-ready
// rows) and say so in the PR — never loosen the comparison to
// tolerances.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "crowd/crowd.hpp"
#include "model/design_space.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace hi {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// The five single-body golden rows, verbatim from test_sim_golden.cpp.
struct SingleRow {
  const char* name;
  std::vector<int> locs;
  int tx_level;
  model::MacProtocol mac;
  model::RoutingProtocol routing;
  std::uint64_t seed;
  std::uint64_t pdr, worst_power_mw, mean_power_mw, nlt_s;
  std::uint64_t events;
  std::uint64_t avg_pdr, avg_worst_power_mw;
  std::uint64_t avg_events;
};

const std::vector<SingleRow>& single_rows() {
  using model::MacProtocol;
  using model::RoutingProtocol;
  static const std::vector<SingleRow> rows = {
      {"star_csma_n4", {0, 1, 3, 5}, 1, MacProtocol::kCsma,
       RoutingProtocol::kStar, 2017,
       0x3fea433788cde234ull, 0x3fe8edc28f5c1f66ull, 0x3fe4f23d70a3cfaeull,
       0x4147cc5cfcfbc968ull, 5406ull,
       0x3fe6c8b8362e0d8cull, 0x3fe7ec0c49ba550aull, 9944ull},
      {"star_tdma_n4", {0, 1, 3, 5}, 2, MacProtocol::kTdma,
       RoutingProtocol::kStar, 2017,
       0x3feedbefbefbefbfull, 0x3fec14083126df4bull, 0x3fea475c28f5b943ull,
       0x414520fdae917992ull, 6079ull,
       0x3fec7fea53fa94feull, 0x3feb619db22d04b4ull, 11486ull},
      {"mesh_csma_n5", {0, 1, 3, 5, 7}, 2, MacProtocol::kCsma,
       RoutingProtocol::kMesh, 99,
       0x3fed63dbb01d0cb5ull, 0x3ff8d9fbe76c83f2ull, 0x3ff71e5460aa5e2bull,
       0x4137df4d16c558c4ull, 21039ull,
       0x3fedbb190e296550ull, 0x3ff8107ae147a740ull, 42858ull},
      {"mesh_tdma_n5", {0, 1, 3, 5, 7}, 0, MacProtocol::kTdma,
       RoutingProtocol::kMesh, 7,
       0x3fe9d92566c35bdeull, 0x400216a0c49b9f82ull, 0x3ffcaff06f6939d6ull,
       0x413066227a6e6b30ull, 19174ull,
       0x3feabca421683732ull, 0x40044a810624d63aull, 44193ull},
      {"mesh_tdma_n6", {0, 2, 4, 6, 8, 9}, 2, MacProtocol::kTdma,
       RoutingProtocol::kMesh, 424242,
       0x3ff0000000000000ull, 0x4026b2bffffff211ull, 0x4025278cccccc101ull,
       0x410a230bf8e83d3full, 107776ull,
       0x3feff8d0649a7f8dull, 0x4027236f9db21e70ull, 220222ull},
  };
  return rows;
}

model::NetworkConfig config_of(const SingleRow& row) {
  const model::Scenario scenario;
  return scenario.make_config(model::Topology::from_locations(row.locs),
                              row.tx_level, row.mac, row.routing);
}

TEST(CrowdGolden, M1CollapsesToSingleBodyGoldens) {
  for (const SingleRow& row : single_rows()) {
    SCOPED_TRACE(row.name);
    const model::NetworkConfig cfg = config_of(row);
    model::CrowdScenario sc;
    sc.cfg = cfg;
    sc.bodies = 1;

    net::SimParams sp;
    sp.duration_s = 20.0;
    sp.seed = row.seed;

    // Single run: the crowd summary must match the pinned single-body
    // row exactly, and per_body[0] must match a live net::simulate over
    // the same (degenerate) channel seed field by field.
    const auto channel =
        crowd::make_crowd_channel_for(sc, row.seed ^ 0xABCDEF);
    obs::MetricsRegistry crowd_metrics;
    net::SimParams crowd_sp = sp;
    crowd_sp.metrics = &crowd_metrics;
    const crowd::CrowdResult cr =
        crowd::simulate_crowd(sc, *channel, crowd_sp);
    EXPECT_EQ(bits(cr.summary.pdr), row.pdr);
    EXPECT_EQ(bits(cr.summary.worst_power_mw), row.worst_power_mw);
    EXPECT_EQ(bits(cr.summary.mean_power_mw), row.mean_power_mw);
    EXPECT_EQ(bits(cr.summary.nlt_s), row.nlt_s);
    EXPECT_EQ(cr.summary.events, row.events);
    EXPECT_TRUE(cr.summary.crowd.present);
    EXPECT_EQ(cr.summary.crowd.bodies, 1);
    EXPECT_EQ(bits(cr.summary.crowd.min_body_pdr), row.pdr);
    // One body: no cross-body links exist, so no coexistence traffic.
    EXPECT_EQ(cr.summary.crowd.cross_offered, 0u);
    EXPECT_EQ(cr.summary.crowd.foreign_heard, 0u);
    EXPECT_EQ(cr.summary.crowd.foreign_decoded, 0u);

    obs::MetricsRegistry single_metrics;
    net::SimParams single_sp = sp;
    single_sp.metrics = &single_metrics;
    const net::SimResult one = net::simulate(
        cfg, *net::default_channel_factory()(row.seed ^ 0xABCDEF),
        single_sp);
    // One driver, one flush: the one-body crowd run records exactly the
    // single-body counter set and values, des.alloc_slabs included, and
    // no coexistence ledger.
    const obs::Snapshot crowd_snap = crowd_metrics.snapshot();
    const obs::Snapshot single_snap = single_metrics.snapshot();
    EXPECT_EQ(crowd_snap.counters, single_snap.counters);
    EXPECT_EQ(crowd_snap.gauges, single_snap.gauges);
    EXPECT_EQ(crowd_snap.counter("net.runs"), 1u);
    EXPECT_GT(crowd_snap.counter("des.alloc_slabs"), 0u);
    EXPECT_EQ(crowd_snap.counters.count("net.crowd_runs"), 0u);
    ASSERT_EQ(cr.per_body.size(), 1u);
    const net::SimResult& b0 = cr.per_body[0];
    EXPECT_EQ(bits(b0.pdr), bits(one.pdr));
    EXPECT_EQ(bits(b0.worst_power_mw), bits(one.worst_power_mw));
    EXPECT_EQ(bits(b0.mean_power_mw), bits(one.mean_power_mw));
    EXPECT_EQ(bits(b0.nlt_s), bits(one.nlt_s));
    ASSERT_EQ(b0.nodes.size(), one.nodes.size());
    for (std::size_t i = 0; i < one.nodes.size(); ++i) {
      EXPECT_EQ(b0.nodes[i].location, one.nodes[i].location);
      EXPECT_EQ(bits(b0.nodes[i].pdr), bits(one.nodes[i].pdr));
      EXPECT_EQ(bits(b0.nodes[i].power_mw), bits(one.nodes[i].power_mw));
      EXPECT_EQ(b0.nodes[i].app_sent, one.nodes[i].app_sent);
    }

    // Seed-averaged: same fork labels, same channel-seed whitening.
    const crowd::CrowdResult cavg = crowd::simulate_crowd_averaged(sc, sp, 2);
    EXPECT_EQ(bits(cavg.summary.pdr), row.avg_pdr);
    EXPECT_EQ(bits(cavg.summary.worst_power_mw), row.avg_worst_power_mw);
    EXPECT_EQ(cavg.summary.events, row.avg_events);
  }
}

// Multi-body golden rows: star_csma_n4 replicated M times on a dense
// 0.5 m grid (close enough that cross-body transmissions land well
// above sensitivity), Tsim 20 s, seed 2017, single run.
struct CrowdRow {
  int bodies;
  std::uint64_t pdr, min_body_pdr, worst_power_mw, mean_power_mw, nlt_s;
  std::uint64_t events;
  std::uint64_t cross_offered, foreign_heard, foreign_decoded;
};

model::CrowdScenario multi_body_scenario(int bodies) {
  model::CrowdScenario sc;
  sc.cfg = config_of(single_rows()[0]);  // star_csma_n4
  sc.bodies = bodies;
  sc.spacing_m = 0.5;
  return sc;
}

net::SimParams multi_body_params() {
  net::SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 2017;
  return sp;
}

const std::vector<CrowdRow>& crowd_rows() {
  static const std::vector<CrowdRow> rows = {
      {2,
       0x3fe945ac056b015bull, 0x3fe8482082082082ull, 0x3ff81cf9db22c769ull,
       0x3ff5dff7ced90dd6ull, 0x41389a6bb4eabb20ull,
       19055ull, 8492ull, 8492ull, 8492ull},
      {4,
       0x3fe813fa94fea53full, 0x3fe6bb6db6db6db6ull, 0x40074753e1a12e1bull,
       0x40062081921391f0ull, 0x41297c39d5f15ab4ull,
       71318ull, 50208ull, 50208ull, 49553ull},
      {8,
       0x3fe4616b015ac057ull, 0x3fe2c9d1f2747c9dull, 0x40151d3288a6b08dull,
       0x4014953f372f2552ull, 0x411c1913a9293353ull,
       269015ull, 226912ull, 226912ull, 201186ull},
  };
  return rows;
}

TEST(CrowdGolden, MultiBodyFingerprints) {
  const net::SimParams sp = multi_body_params();
  for (const CrowdRow& row : crowd_rows()) {
    SCOPED_TRACE(row.bodies);
    const model::CrowdScenario sc = multi_body_scenario(row.bodies);
    const auto channel = crowd::make_crowd_channel_for(sc, sp.seed ^ 0xABCDEF);
    obs::MetricsRegistry metrics;
    net::SimParams metered = sp;
    metered.metrics = &metrics;
    const crowd::CrowdResult cr = crowd::simulate_crowd(sc, *channel, metered);
    EXPECT_EQ(bits(cr.summary.pdr), row.pdr);
    EXPECT_EQ(bits(cr.summary.crowd.min_body_pdr), row.min_body_pdr);
    EXPECT_EQ(bits(cr.summary.worst_power_mw), row.worst_power_mw);
    EXPECT_EQ(bits(cr.summary.mean_power_mw), row.mean_power_mw);
    EXPECT_EQ(bits(cr.summary.nlt_s), row.nlt_s);
    EXPECT_EQ(cr.summary.events, row.events);
    EXPECT_EQ(cr.summary.crowd.cross_offered, row.cross_offered);
    EXPECT_EQ(cr.summary.crowd.foreign_heard, row.foreign_heard);
    EXPECT_EQ(cr.summary.crowd.foreign_decoded, row.foreign_decoded);
    EXPECT_EQ(cr.summary.crowd.bodies, row.bodies);
    ASSERT_EQ(cr.per_body.size(), static_cast<std::size_t>(row.bodies));

    // The run's one flush mirrors the result, summed over all bodies:
    // every MAC send is one radio transmission is one medium
    // transmission, and the medium offers each transmission to every
    // other radio in the crowd, above or below sensitivity.
    const obs::Snapshot snap = metrics.snapshot();
    const std::uint64_t tx = cr.summary.medium.transmissions;
    const std::uint64_t radios =
        static_cast<std::uint64_t>(row.bodies) *
        static_cast<std::uint64_t>(sc.cfg.topology.count());
    EXPECT_EQ(snap.counter("net.runs"), 1u);
    EXPECT_EQ(snap.counter("net.mac.sent"), tx);
    EXPECT_EQ(snap.counter("net.radio.tx_packets"), tx);
    EXPECT_EQ(snap.counter("net.medium.transmissions"), tx);
    EXPECT_EQ(snap.counter("net.medium.deliveries_offered") +
                  snap.counter("net.medium.below_sensitivity"),
              tx * (radios - 1));
    EXPECT_EQ(snap.counter("des.events"), cr.summary.events);
    // Cross-body ledger: every foreign signal above sensitivity that the
    // medium offered was heard by its receiver; decoding is a subset.
    EXPECT_EQ(snap.counter("net.crowd_runs"), 1u);
    EXPECT_EQ(snap.counter("net.crowd_bodies"),
              static_cast<std::uint64_t>(row.bodies));
    EXPECT_EQ(snap.counter("net.crowd_foreign_heard"),
              snap.counter("net.crowd_cross_offered"));
    EXPECT_LE(snap.counter("net.crowd_foreign_decoded"),
              snap.counter("net.crowd_foreign_heard"));
    EXPECT_EQ(snap.counter("net.crowd_cross_offered"), row.cross_offered);
  }
}

// Regeneration helper (run with --gtest_also_run_disabled_tests
// --gtest_filter='*RecordMultiBodyRows'): prints crowd_rows() entries
// in paste-ready form.
TEST(CrowdGolden, DISABLED_RecordMultiBodyRows) {
  const net::SimParams sp = multi_body_params();
  for (int bodies : {2, 4, 8}) {
    const model::CrowdScenario sc = multi_body_scenario(bodies);
    const auto channel = crowd::make_crowd_channel_for(sc, sp.seed ^ 0xABCDEF);
    const crowd::CrowdResult cr = crowd::simulate_crowd(sc, *channel, sp);
    std::printf(
        "      {%d,\n"
        "       0x%llxull, 0x%llxull, 0x%llxull, 0x%llxull, 0x%llxull,\n"
        "       %lluull, %lluull, %lluull, %lluull},\n",
        bodies, static_cast<unsigned long long>(bits(cr.summary.pdr)),
        static_cast<unsigned long long>(bits(cr.summary.crowd.min_body_pdr)),
        static_cast<unsigned long long>(bits(cr.summary.worst_power_mw)),
        static_cast<unsigned long long>(bits(cr.summary.mean_power_mw)),
        static_cast<unsigned long long>(bits(cr.summary.nlt_s)),
        static_cast<unsigned long long>(cr.summary.events),
        static_cast<unsigned long long>(cr.summary.crowd.cross_offered),
        static_cast<unsigned long long>(cr.summary.crowd.foreign_heard),
        static_cast<unsigned long long>(cr.summary.crowd.foreign_decoded));
  }
}

}  // namespace
}  // namespace hi
