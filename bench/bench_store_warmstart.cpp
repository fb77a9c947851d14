// Measures what hi::store warm start is worth: the same Algorithm 1 run
// executed cold (fresh store, every point simulated) and then warm (a
// second process-like pass preloading the store), with wall-clock and
// hit-rate emitted as JSON on stdout.
//
// The correctness contracts are asserted on the fly, mirroring the
// hi::check warm-start determinism property: the warmed run must return
// the cold run's optimum bit-for-bit, pay for zero fresh simulations
// (Algorithm 1 is deterministic, so a full store answers everything),
// and account every served point in dse.store_hits.
//
// The usual HI_TSIM / HI_RUNS / HI_SEED knobs apply; HI_PDR_MIN
// (default 0.9) picks the reliability bound.
#include <cstdio>
#include <iostream>
#include <string>
#include <unistd.h>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "common/json_string.hpp"
#include "dse/explorer.hpp"
#include "store/store.hpp"

namespace {

struct Leg {
  double wall_s = 0.0;
  std::uint64_t simulations = 0;
  std::uint64_t store_hits = 0;
  std::size_t preloaded = 0;
  bool feasible = false;
  double best_power_mw = 0.0;
};

Leg run_leg(const hi::dse::EvaluatorSettings& base,
            const std::string& store_path, double pdr_min) {
  using namespace hi;
  store::EvalStore st(store_path);
  dse::Evaluator eval(base);
  const store::WarmStartStats warm = store::warm_start(eval, st);
  dse::ExplorationOptions opt;
  opt.pdr_min = pdr_min;
  const dse::ExplorationResult r =
      dse::run_algorithm1(model::Scenario{}, eval, opt);
  return Leg{r.wall_time_s, r.simulations,   eval.store_hits(),
             warm.preloaded, r.feasible,     r.best_power_mw};
}

void put_leg(hi::JsonWriter& w, const char* name, const Leg& leg) {
  w.key(name).object(hi::JsonWriter::kInline).field("wall_s", leg.wall_s);
  w.field("simulations", leg.simulations);
  w.field("store_hits", leg.store_hits).field("preloaded", leg.preloaded);
  w.field("feasible", leg.feasible);
  w.field("best_power_mw", leg.best_power_mw).end();
}

}  // namespace

int main() {
  using namespace hi;
  const dse::EvaluatorSettings base = bench::experiment_settings();
  const double pdr_min = bench::env_double("HI_PDR_MIN", 0.9);
  const std::string store_path =
      "bench_warmstart-" + std::to_string(::getpid()) + ".store";

  std::cerr << "bench_store_warmstart: Tsim=" << base.sim.duration_s
            << " s, runs=" << base.runs << ", seed=" << base.sim.seed
            << ", pdr_min=" << pdr_min << " (JSON on stdout)\n";

  // Cold leg: empty store, write-through fills it as Algorithm 1 runs.
  const Leg cold = run_leg(base, store_path, pdr_min);
  std::cerr << "  cold: " << cold.wall_s << " s, " << cold.simulations
            << " simulations\n";

  // Warm leg: a fresh evaluator (as a new process would have) preloaded
  // from the store the cold leg just wrote.
  const Leg warm = run_leg(base, store_path, pdr_min);
  std::cerr << "  warm: " << warm.wall_s << " s, " << warm.store_hits
            << " store hits\n";

  HI_ASSERT_MSG(cold.store_hits == 0 && cold.preloaded == 0,
                "cold leg was not cold — stale " << store_path << "?");
  HI_ASSERT_MSG(warm.feasible == cold.feasible &&
                    warm.best_power_mw == cold.best_power_mw,
                "warm start changed the optimum — determinism contract "
                "violated");
  HI_ASSERT_MSG(warm.simulations + warm.store_hits == cold.simulations,
                "warm accounting broken: " << warm.simulations << " + "
                                           << warm.store_hits
                                           << " != " << cold.simulations);
  HI_ASSERT_MSG(warm.simulations == 0,
                "a deterministic replay re-simulated "
                    << warm.simulations << " point(s)");

  const double hit_rate =
      cold.simulations > 0
          ? static_cast<double>(warm.store_hits) /
                static_cast<double>(cold.simulations)
          : 0.0;
  JsonWriter w;
  w.object(JsonWriter::kBlock).field("tsim_s", base.sim.duration_s);
  w.field("runs", base.runs).field("seed", base.sim.seed);
  w.field("pdr_min", pdr_min);
  put_leg(w, "cold", cold);
  put_leg(w, "warm", warm);
  w.field("hit_rate", hit_rate);
  w.field("speedup", warm.wall_s > 0.0 ? cold.wall_s / warm.wall_s : 0.0);
  std::cout << w.end().take();
  std::remove(store_path.c_str());
  return 0;
}
