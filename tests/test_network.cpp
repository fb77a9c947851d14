// Integration tests for the whole-network simulation (net/network.hpp):
// PDR accounting (Eqs. 6-7), power/lifetime (Eq. 4), determinism, and the
// lossless-limit agreement with the analytic model of Eq. (5)/(9).
#include "net/network.hpp"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "model/design_space.hpp"
#include "model/power.hpp"

namespace hi::net {
namespace {

/// A perfect channel: every link at `pl` dB, no fading.
channel::StaticChannel uniform_channel(double pl) {
  channel::PathLossMatrix m;
  for (int i = 0; i < channel::kNumLocations; ++i) {
    for (int j = i + 1; j < channel::kNumLocations; ++j) {
      m.set_db(i, j, pl);
    }
  }
  return channel::StaticChannel{m};
}

model::NetworkConfig star_config(model::MacProtocol mac =
                                     model::MacProtocol::kTdma) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), 2,
                        mac, model::RoutingProtocol::kStar);
}

model::NetworkConfig mesh_config(model::MacProtocol mac =
                                     model::MacProtocol::kTdma) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), 2,
                        mac, model::RoutingProtocol::kMesh);
}

TEST(Network, PerfectChannelGivesUnitPdr) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  for (const auto& cfg : {star_config(), mesh_config()}) {
    const SimResult r = simulate(cfg, ch, sp);
    EXPECT_DOUBLE_EQ(r.pdr, 1.0) << cfg.label();
    for (const NodeResult& n : r.nodes) {
      EXPECT_DOUBLE_EQ(n.pdr, 1.0);
      EXPECT_GT(n.app_sent, 0u);
    }
  }
}

TEST(Network, DeadChannelGivesZeroPdr) {
  auto ch = uniform_channel(150.0);
  SimParams sp;
  sp.duration_s = 10.0;
  const SimResult r = simulate(star_config(), ch, sp);
  EXPECT_DOUBLE_EQ(r.pdr, 0.0);
  // Nothing received: only baseline + own transmissions burn power.
  for (const NodeResult& n : r.nodes) {
    EXPECT_EQ(n.radio.rx_ok, 0u);
    EXPECT_GT(n.radio.tx_packets, 0u);
  }
}

TEST(Network, LosslessStarPowerMatchesAnalyticModel) {
  // In the lossless TDMA limit the measured power must approach Eq. (9):
  // each round costs 1 Tx + 2(N-1) Rx per non-coordinator node.
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 120.0;
  sp.gen_guard_s = 1.0;
  const auto cfg = star_config(model::MacProtocol::kTdma);
  const SimResult r = simulate(cfg, ch, sp);
  ASSERT_DOUBLE_EQ(r.pdr, 1.0);
  const double analytic = model::node_power_mw(cfg);
  // Eq. (5) charges two receptions per packet per node; packets destined
  // to the coordinator get no echo, so the measured power sits a little
  // below the analytic estimate but within the same regime.
  EXPECT_LE(r.worst_power_mw, analytic);
  EXPECT_GE(r.worst_power_mw, 0.75 * analytic);
}

TEST(Network, LosslessMeshPowerMatchesAnalyticNreTxModel) {
  // Every-copy controlled flooding transmits each packet exactly
  // NreTx = N^2-4N+5 times in the lossless limit, so the simulated power
  // must land on the paper's Eq. (5) mesh model (up to the generation
  // guard and round-robin destination imbalance).
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 120.0;
  const auto cfg = mesh_config(model::MacProtocol::kTdma);
  const SimResult r = simulate(cfg, ch, sp);
  ASSERT_DOUBLE_EQ(r.pdr, 1.0);
  const double analytic = model::node_power_mw(cfg);
  EXPECT_LE(r.worst_power_mw, analytic * 1.02);
  EXPECT_GE(r.worst_power_mw, analytic * 0.88);
  // And the mesh costs far more than the star (relaying is real work).
  const SimResult rs = simulate(star_config(model::MacProtocol::kTdma), ch,
                                sp);
  EXPECT_GT(r.worst_power_mw, 1.5 * rs.worst_power_mw);
}

TEST(Network, NltUsesWorstNonCoordinatorNode) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  const auto cfg = star_config();
  const SimResult r = simulate(cfg, ch, sp);
  double worst = 0.0;
  for (const NodeResult& n : r.nodes) {
    if (n.location == cfg.routing.coordinator) continue;
    worst = std::max(worst, n.power_mw);
  }
  EXPECT_DOUBLE_EQ(r.worst_power_mw, worst);
  EXPECT_NEAR(r.nlt_s, cfg.battery_j / mw_to_w(worst), 1e-6);
}

TEST(Network, CoordinatorBurnsMoreButIsExcluded) {
  // The star coordinator relays everyone's packets: highest power in the
  // network, but the paper gives it a larger battery and excludes it.
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  const auto cfg = star_config();
  const SimResult r = simulate(cfg, ch, sp);
  double coor_power = 0.0;
  for (const NodeResult& n : r.nodes) {
    if (n.location == cfg.routing.coordinator) coor_power = n.power_mw;
  }
  EXPECT_GT(coor_power, r.worst_power_mw);
}

TEST(Network, MeshNltCountsAllNodes) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 30.0;
  const SimResult r = simulate(mesh_config(), ch, sp);
  double worst = 0.0;
  for (const NodeResult& n : r.nodes) worst = std::max(worst, n.power_mw);
  EXPECT_DOUBLE_EQ(r.worst_power_mw, worst);
}

TEST(Network, DeterministicBySeed) {
  SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 77;
  auto c1 = channel::make_default_body_channel(5);
  auto c2 = channel::make_default_body_channel(5);
  const SimResult a = simulate(star_config(model::MacProtocol::kCsma), *c1,
                               sp);
  const SimResult b = simulate(star_config(model::MacProtocol::kCsma), *c2,
                               sp);
  EXPECT_DOUBLE_EQ(a.pdr, b.pdr);
  EXPECT_DOUBLE_EQ(a.worst_power_mw, b.worst_power_mw);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.medium.transmissions, b.medium.transmissions);
}

TEST(Network, DifferentSeedsGiveDifferentRuns) {
  SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 1;
  auto c1 = channel::make_default_body_channel(5);
  const SimResult a = simulate(star_config(model::MacProtocol::kCsma), *c1,
                               sp);
  sp.seed = 2;
  auto c2 = channel::make_default_body_channel(6);
  const SimResult b = simulate(star_config(model::MacProtocol::kCsma), *c2,
                               sp);
  EXPECT_NE(a.pdr, b.pdr);
}

TEST(Network, GenerationGuardLimitsInFlightLoss) {
  // Packets stop `gen_guard_s` before the end: on a perfect channel the
  // PDR stays exactly 1 (no clipped tail).
  auto ch = uniform_channel(50.0);
  SimParams sp;
  sp.duration_s = 5.0;
  sp.gen_guard_s = 0.5;
  const SimResult r = simulate(star_config(), ch, sp);
  EXPECT_DOUBLE_EQ(r.pdr, 1.0);
  for (const NodeResult& n : r.nodes) {
    EXPECT_NEAR(static_cast<double>(n.app_sent), 45.0, 2.0);
  }
}

TEST(Network, RejectsBadInput) {
  auto ch = uniform_channel(50.0);
  SimParams sp;
  model::Scenario sc;
  // One-node network.
  const auto solo = sc.make_config(model::Topology::from_locations({0}), 0,
                                   model::MacProtocol::kCsma,
                                   model::RoutingProtocol::kMesh);
  EXPECT_THROW((void)simulate(solo, ch, sp), ModelError);
  // Star without its coordinator.
  const auto headless = sc.make_config(
      model::Topology::from_locations({1, 2, 3, 5}), 0,
      model::MacProtocol::kCsma, model::RoutingProtocol::kStar);
  EXPECT_THROW((void)simulate(headless, ch, sp), ModelError);
  // Duration shorter than the guard.
  sp.duration_s = 0.5;
  sp.gen_guard_s = 1.0;
  EXPECT_THROW((void)simulate(star_config(), ch, sp), ModelError);
}

TEST(Network, AveragedRunsReduceVariance) {
  SimParams sp;
  sp.duration_s = 20.0;
  sp.seed = 9;
  RunningStats spread;
  const SimResult avg = simulate_averaged(
      star_config(model::MacProtocol::kCsma), sp, 5,
      default_channel_factory(), &spread, nullptr);
  EXPECT_EQ(spread.count(), 5u);
  EXPECT_NEAR(avg.pdr, spread.mean(), 1e-12);
  EXPECT_GT(avg.pdr, 0.0);
  EXPECT_LT(avg.pdr, 1.0);  // body channel is lossy at 0 dBm
  // NLT consistent with the averaged power.
  EXPECT_NEAR(avg.nlt_s,
              star_config().battery_j / mw_to_w(avg.worst_power_mw), 1e-6);
}

TEST(Network, FoldOfIndependentReplicasIsSimulateAveraged) {
  // The two halves of the replication loop, used the way a parallel
  // caller does: each run seeded from replica_seeds(params, r) alone
  // (run here in reverse), then folded in run order.
  const model::NetworkConfig cfg = star_config(model::MacProtocol::kCsma);
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const auto same_spread = [&](const RunningStats& a, const RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(bits(a.mean()), bits(b.mean()));
    EXPECT_EQ(bits(a.variance()), bits(b.variance()));
    EXPECT_EQ(bits(a.min()), bits(b.min()));
    EXPECT_EQ(bits(a.max()), bits(b.max()));
  };
  constexpr int kRuns = 3;
  for (std::uint64_t channel_seed : {0ULL, 77ULL}) {
    SCOPED_TRACE(channel_seed);
    SimParams sp;
    sp.duration_s = 5.0;
    sp.seed = 2017;
    sp.channel_seed = channel_seed;
    sp.collect_latency = true;
    RunningStats pdr_ref, power_ref;
    const SimResult ref = simulate_averaged(
        cfg, sp, kRuns, default_channel_factory(), &pdr_ref, &power_ref);

    std::vector<SimResult> runs(kRuns);
    for (int r = kRuns - 1; r >= 0; --r) {
      const detail::ReplicaSeeds seeds = detail::replica_seeds(sp, r);
      runs[static_cast<std::size_t>(r)] = simulate(
          cfg, *channel::make_default_body_channel(seeds.channel_seed),
          seeds.params);
    }
    RunningStats pdr_spread, power_spread;
    const SimResult got = detail::fold(std::move(runs), cfg.battery_j,
                                       &pdr_spread, &power_spread);

    EXPECT_EQ(bits(got.pdr), bits(ref.pdr));
    EXPECT_EQ(bits(got.worst_power_mw), bits(ref.worst_power_mw));
    EXPECT_EQ(bits(got.mean_power_mw), bits(ref.mean_power_mw));
    EXPECT_EQ(bits(got.nlt_s), bits(ref.nlt_s));
    EXPECT_EQ(got.events, ref.events);
    ASSERT_TRUE(ref.latency.collected);
    EXPECT_TRUE(got.latency.collected);
    EXPECT_EQ(got.latency.samples, ref.latency.samples);
    EXPECT_EQ(bits(got.latency.mean_s), bits(ref.latency.mean_s));
    EXPECT_EQ(bits(got.latency.p50_s), bits(ref.latency.p50_s));
    EXPECT_EQ(bits(got.latency.p95_s), bits(ref.latency.p95_s));
    EXPECT_EQ(bits(got.latency.max_s), bits(ref.latency.max_s));
    EXPECT_FALSE(got.crowd.present);
    ASSERT_EQ(got.nodes.size(), ref.nodes.size());
    for (std::size_t i = 0; i < got.nodes.size(); ++i) {
      EXPECT_EQ(bits(got.nodes[i].pdr), bits(ref.nodes[i].pdr));
      EXPECT_EQ(bits(got.nodes[i].power_mw), bits(ref.nodes[i].power_mw));
      EXPECT_EQ(got.nodes[i].app_sent, ref.nodes[i].app_sent);
    }
    same_spread(pdr_spread, pdr_ref);
    same_spread(power_spread, power_ref);
  }
  EXPECT_THROW((void)detail::fold({}, cfg.battery_j), ModelError);
}

}  // namespace
}  // namespace hi::net
