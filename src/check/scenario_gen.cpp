#include "check/scenario_gen.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "channel/locations.hpp"
#include "common/rng.hpp"

namespace hi::check {

namespace {

/// Full exhaustive sweeps must stay cheap enough to run hundreds of
/// times per fuzz session on one core, so a freshly drawn scenario is
/// auto-shrunk until its feasible design space fits this budget.
constexpr std::size_t kMaxFeasibleConfigs = 48;

/// Applies one shrink step in place; each level removes a strictly
/// positive amount of design space / simulated time but keeps the
/// instance in the same scenario family.
void shrink_once(ScenarioSpec& spec, int level) {
  model::Scenario& sc = spec.scenario;
  switch (level) {
    case 1:
      sc.max_nodes = sc.min_nodes;  // exactly one node per required role
      sc.dependencies.clear();
      if (sc.chip.tx_levels.size() > 2) sc.chip.tx_levels.resize(2);
      break;
    case 2:
      if (sc.coverage.size() > 1) sc.coverage.resize(1);
      sc.min_nodes = 1 + static_cast<int>(sc.coverage.size());
      sc.max_nodes = sc.min_nodes;
      if (sc.chip.tx_levels.size() > 1) sc.chip.tx_levels.resize(1);
      spec.settings.runs = 1;
      break;
    case 3:
      if (!sc.coverage.empty() && sc.coverage[0].locations.size() > 1) {
        std::vector<int>& locs = sc.coverage[0].locations;
        locs.erase(locs.begin() + 1, locs.end());  // keep the first
      }
      spec.settings.sim.duration_s =
          std::max(0.75, 0.5 * spec.settings.sim.duration_s);
      sc.app.throughput_pps = std::min(sc.app.throughput_pps, 8.0);
      break;
    default:
      break;
  }
}

}  // namespace

ScenarioSpec make_scenario(std::uint64_t seed, int shrink_level) {
  shrink_level = std::clamp(shrink_level, 0, kMaxShrink);
  Rng rng = Rng{seed}.fork("check.scenario");

  ScenarioSpec spec;
  spec.seed = seed;
  spec.shrink_level = shrink_level;
  model::Scenario& sc = spec.scenario;

  // Component library: a synthetic chip in the CC2650's neighbourhood
  // with 2-3 monotone Tx levels (higher output, higher draw).
  sc.chip.name = "fuzz-radio";
  sc.chip.rx_dbm = rng.uniform(-99.0, -92.0);
  sc.chip.rx_mw = rng.uniform(12.0, 22.0);
  sc.chip.tx_levels.clear();
  const int levels = static_cast<int>(rng.uniform_int(2, 3));
  double dbm = rng.uniform(-22.0, -16.0);
  double mw = rng.uniform(8.0, 11.0);
  for (int l = 0; l < levels; ++l) {
    sc.chip.tx_levels.push_back(model::TxLevel{dbm, mw});
    dbm += rng.uniform(6.0, 11.0);
    mw += rng.uniform(3.0, 6.0);
  }

  // Application profile and battery.
  sc.app.packet_bytes = 40 + 20 * static_cast<int>(rng.uniform_int(0, 4));
  sc.app.throughput_pps = static_cast<double>(rng.uniform_int(5, 20));
  sc.app.baseline_mw = rng.uniform(0.05, 0.2);
  sc.battery_j = rng.uniform(1500.0, 3000.0);
  sc.mac_buffer_packets = 4 << rng.uniform_index(3);

  // Coverage groups: 1-2 disjoint at-least-one-of groups of size 1-2,
  // drawn from the nine non-coordinator locations.  The coordinator
  // (location 0) stays required, so every scenario admits the topology
  // {0} + one member per group — the design space is never empty.
  std::vector<int> pool;
  for (int loc = 1; loc < channel::kNumLocations; ++loc) pool.push_back(loc);
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.uniform_index(i)]);
  }
  sc.required_locations = {0};
  sc.coordinator = 0;
  sc.coverage.clear();
  std::size_t next = 0;
  const int groups = static_cast<int>(rng.uniform_int(1, 2));
  for (int g = 0; g < groups; ++g) {
    model::CoverageConstraint cov;
    cov.reason = "fuzz coverage group";
    const int size = static_cast<int>(rng.uniform_int(1, 2));
    for (int k = 0; k < size && next < pool.size(); ++k) {
      cov.locations.push_back(pool[next++]);
    }
    sc.coverage.push_back(std::move(cov));
  }
  sc.min_nodes = 1 + groups;
  sc.max_nodes = sc.min_nodes + static_cast<int>(rng.uniform_int(0, 1));
  sc.max_hops = static_cast<int>(rng.uniform_int(2, 3));

  // Optional placement dependency on a location outside every coverage
  // group: it only prunes topologies that spend an extra node there, so
  // the guaranteed minimal topology stays feasible.
  if (rng.bernoulli(0.3) && next + 1 < pool.size()) {
    model::DependencyConstraint dep;
    dep.if_used = pool[next];
    dep.then_used = pool[next + 1];
    dep.reason = "fuzz placement dependency";
    sc.dependencies.push_back(dep);
  }

  // Evaluation settings: short runs, one replication, seeded from the
  // scenario seed so the whole instance replays from (seed, shrink).
  spec.settings.sim.duration_s = 1.25 + 0.25 * rng.uniform_index(4);
  spec.settings.sim.gen_guard_s = 0.25;
  spec.settings.sim.seed = rng.next_u64();
  spec.settings.runs = 1;

  // Requested shrink first, then auto-shrink until the exhaustive ground
  // set fits the fuzz budget.  Both are deterministic in (seed, shrink).
  int applied = 0;
  for (; applied < shrink_level; ++applied) shrink_once(spec, applied + 1);
  while (applied < kMaxShrink &&
         sc.feasible_configs().size() > kMaxFeasibleConfigs) {
    shrink_once(spec, ++applied);
  }
  return spec;
}

std::string ScenarioSpec::summary() const {
  std::ostringstream oss;
  oss << "seed=" << seed << " shrink=" << shrink_level << ": "
      << scenario.coverage.size() << " coverage groups, nodes ["
      << scenario.min_nodes << "," << scenario.max_nodes << "], "
      << scenario.chip.tx_levels.size() << " tx levels, "
      << scenario.feasible_configs().size() << " feasible configs, Tsim="
      << settings.sim.duration_s << "s, " << scenario.app.packet_bytes
      << "B @ " << scenario.app.throughput_pps << "pps";
  return oss.str();
}

}  // namespace hi::check
