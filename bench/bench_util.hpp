// hi-opt: shared plumbing for the experiment and benchmark binaries.
//
// Every bench honours these environment variables:
//   HI_TSIM  — simulation duration per run in seconds (default 60; the
//              paper uses 600, which scales all sample counts by 10x but
//              does not move the means beyond their ~0.5% error bars)
//   HI_RUNS  — replications averaged per design point (default 3, as in
//              the paper)
//   HI_SEED  — experiment root seed (default 2017)
//
// The perf microbenches (bench_des_perf, bench_milp_perf,
// bench_parallel_speedup) additionally honour
//   HI_BENCH_QUICK — nonzero shrinks workloads for CI smoke runs
// and emit the canonical "hi-bench/v1" JSON document on stdout
// (BenchReport below; schema and gating rules in DESIGN.md §11,
// validated/compared by scripts/bench_gate.py).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/json_string.hpp"
#include "dse/evaluator.hpp"
#include "model/design_space.hpp"

namespace hi::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}

/// True when HI_BENCH_QUICK is set: CI smoke mode, scaled-down
/// workloads.  Rate metrics (anything per-second) stay comparable with
/// full runs; extensive metrics (counts, wall times) do not and must be
/// emitted with gate=false in quick mode.
inline bool quick_mode() { return env_long("HI_BENCH_QUICK", 0) != 0; }

/// Evaluation settings shared by all experiment benches.
inline dse::EvaluatorSettings experiment_settings() {
  dse::EvaluatorSettings s;
  s.sim.duration_s = env_double("HI_TSIM", 60.0);
  s.sim.seed = static_cast<std::uint64_t>(env_long("HI_SEED", 2017));
  s.runs = static_cast<int>(env_long("HI_RUNS", 3));
  return s;
}

/// Prints the standard experiment banner.
inline void banner(const std::string& title,
                   const dse::EvaluatorSettings& s) {
  std::cout << "=== " << title << " ===\n"
            << "settings: Tsim=" << s.sim.duration_s << " s, runs=" << s.runs
            << ", seed=" << s.sim.seed
            << "  (HI_TSIM / HI_RUNS / HI_SEED to override; paper: 600 s, "
               "3 runs)\n\n";
}

/// Wall-clock of `fn()`, best of `reps` repetitions (min, not mean — the
/// minimum is the least-noise estimate on a shared machine).
template <typename F>
double time_best_of(int reps, F&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// One measured metric of a bench run ("hi-bench/v1").
struct BenchMetric {
  std::string name;    ///< stable identifier, compared across runs by name
  std::string unit;    ///< "events/s", "solves/s", "s", "count", "mW", ...
  double value = 0.0;
  /// Regression direction: "higher" / "lower" = value should not move
  /// the other way by more than the gate tolerance; "exact" = value is
  /// deterministic and must match the baseline bit-for-bit (counts,
  /// optimizer results).
  std::string better = "higher";
  /// False exempts the metric from scripts/bench_gate.py comparison
  /// (trajectory-only data: wall clocks on a shared box, quick-mode
  /// extensive counts).
  bool gate = true;
  std::uint64_t items = 0;  ///< work items behind `value` (0 = n/a)
  double wall_s = 0.0;      ///< wall clock of the measurement (0 = n/a)
};

/// Canonical machine-readable bench report (schema "hi-bench/v1"),
/// written to stdout as the bench's only stdout output and committed at
/// the repo root as BENCH_<name>.json.  scripts/bench_gate.py validates
/// the schema and gates regressions against the committed baseline.
class BenchReport {
 public:
  BenchReport(std::string bench, const dse::EvaluatorSettings& s)
      : bench_(std::move(bench)), tsim_s_(s.sim.duration_s), runs_(s.runs),
        seed_(s.sim.seed) {}

  void add(BenchMetric m) { metrics_.push_back(std::move(m)); }

  /// Convenience: a rate metric (work/second), gated by default.
  void add_rate(const std::string& name, const std::string& unit,
                std::uint64_t items, double wall_s) {
    add(BenchMetric{name, unit, wall_s > 0.0 ? items / wall_s : 0.0,
                    "higher", true, items, wall_s});
  }

  void write(std::ostream& os) const {
    JsonWriter w;
    w.object(JsonWriter::kBlock).field("schema", "hi-bench/v1");
    w.field("bench", bench_).field("quick", quick_mode());
    w.key("settings").object(JsonWriter::kInline).field("tsim_s", tsim_s_);
    w.field("runs", runs_).field("seed", seed_).end();
    w.key("metrics").array(JsonWriter::kBlock);
    for (const BenchMetric& m : metrics_) {
      w.object(JsonWriter::kInline).field("name", m.name);
      w.field("unit", m.unit).field("value", m.value);
      w.field("better", m.better).field("gate", m.gate);
      w.field("items", m.items).field("wall_s", m.wall_s).end();
    }
    os << w.end().end().take();
  }

 private:
  std::string bench_;
  double tsim_s_;
  int runs_;
  std::uint64_t seed_;
  std::vector<BenchMetric> metrics_;
};

}  // namespace hi::bench
