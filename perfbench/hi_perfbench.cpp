// hi_perfbench — time-to-certified-answer benchmark for hi-opt.
//
// Runs one workload in a closed loop (one caller, which waits for each
// answer) through the public APIs, verifies every answer, and prints the
// measured metrics; see README.md in this directory for the workloads,
// the metric map and how to run it.  perfbench/run.py builds this binary
// and is the normal entry point.
//
//   hi_perfbench --workload W --seed N --seconds S --trace 0|1
//                --work-dir DIR [--warm-cache DIR] [--rev REV]
//   hi_perfbench --prepare DIR --seed N
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced answers, checks that both give the same bits and counts,
// and prints the per-layer metrics plus the tracing overhead.  The last
// stdout line is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --prepare runs one ladder_cold answer into DIR/ladder.store and records
// its answer, which ladder_warm later resumes from and is checked against.
//
// Exit codes: 0 measured (answers may still have failed checks: see
// "correct"), 1 runtime error, 2 usage error.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crowd/crowd.hpp"
#include "dse/evaluator.hpp"
#include "exec/thread_pool.hpp"
#include "model/crowd.hpp"
#include "model/design_space.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "pareto/front.hpp"
#include "pareto/sweep.hpp"
#include "store/crowd_codec.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions (README.md "Workloads").

constexpr double kTsimS = 60.0;
constexpr int kRuns = 3;
constexpr int kMaxBodies = 8;
constexpr int kMaxThreads = 4;

/// The Sec. 4.2 PDRmin ladder.
const std::vector<double> kLadder = {0.50, 0.60, 0.70, 0.80,
                                     0.90, 0.95, 0.99};

/// Set-up is short, so one sample per answer would leave setup_s to
/// chance: before each answer, set-up alone is timed for a burst of at
/// least kSetupBurstS (before the first answer) or kSetupShare of the
/// previous answer's time, whichever is smaller, capped at kMaxBurst.
/// Spreading the bursts over the run lets the median see the same
/// machine states the answers see.
constexpr double kSetupBurstS = 0.05;
constexpr double kSetupShare = 0.05;
constexpr int kMaxBurst = 5000;

/// The ladder answer for seed 2017: front then rungs, exact bits (see
/// ladder_digest for the line format).  Columns: design_key, power_mw,
/// pdr, p95_s, nlt_s.
constexpr const char* kPinnedLadder2017 = R"(F c78deb74f4291bdc 3fe334ca11bfe767 3fe00297d4d63987 3f733ca060c8eaab 414ee3996d2f0511
F 7f745f866f03ef3e 3fe6ddddddddf676 3fe6042f2eb6c58d 3f7a8d297b113555 4149f1c38b916e2c
F e867c2104feb7ca5 3fe6fa2fc963152a 3fe686e651ce5f2d 3f6013a92a306aab 4149d1c96e202dd7
F af59c9249df02680 3fe9d06ff513e731 3fea490aec63c66b 3f63a48b94ec4555 4146fb634afc6621
F 4bd97af6ec826b21 3fec012c5f92e419 3feccd36b6168acf 3f72071d27df92ab 41452f382b7b682f
F 66de167026b992f1 3ff4b3f258bf37fb 3fee6bd959e512b7 3f61023de4e28555 413ca7ec41ae376d
F 0bb1fc7f429f51c0 400298eb851ecacf 3fefc4fed1810ced 3f76078dbc9edf55 412fe67d23f4873c
R 3fe0000000000000 1 c78deb74f4291bdc 3fe334ca11bfe767 3fe00297d4d63987 3f733ca060c8eaab 414ee3996d2f0511
R 3fe3333333333333 1 7f745f866f03ef3e 3fe6ddddddddf676 3fe6042f2eb6c58d 3f7a8d297b113555 4149f1c38b916e2c
R 3fe6666666666666 1 e867c2104feb7ca5 3fe6fa2fc963152a 3fe686e651ce5f2d 3f6013a92a306aab 4149d1c96e202dd7
R 3fe999999999999a 1 af59c9249df02680 3fe9d06ff513e731 3fea490aec63c66b 3f63a48b94ec4555 4146fb634afc6621
R 3feccccccccccccd 1 4bd97af6ec826b21 3fec012c5f92e419 3feccd36b6168acf 3f72071d27df92ab 41452f382b7b682f
R 3fee666666666666 1 66de167026b992f1 3ff4b3f258bf37fb 3fee6bd959e512b7 3f61023de4e28555 413ca7ec41ae376d
R 3fefae147ae147ae 1 0bb1fc7f429f51c0 400298eb851ecacf 3fefc4fed1810ced 3f76078dbc9edf55 412fe67d23f4873c
)";

// ---------------------------------------------------------------------------
// Small helpers.

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest decimal that round-trips: every digit as measured.
std::string num(double v) {
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// answer_s is a mean, not a median: on a shared host whose speed
/// switches between a fast and a slow state for seconds at a time, the
/// median of a run jumps between the two states while the mean moves
/// with the share of time spent in each.
double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Mean of the samples between the 10th and 90th percentiles: like the
/// mean it moves smoothly with the share of fast and slow host states
/// (see mean()), and like the median it ignores rare stalls.
double interdecile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(cut),
                                  v.end() - static_cast<std::ptrdiff_t>(cut)));
}

/// The q-quantile by nearest rank.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(rank + 0.5)];
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

int worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, kMaxThreads);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends.

struct Span {
  std::string name;
  int run = 0;      ///< answer index within this process
  int parent = -1;  ///< index into the span list, -1 = root
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(double origin_s) : origin_s_(origin_s) {}

  int record(std::string name, int run, int parent, double start_s,
             double end_s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), run, parent, start_s - origin_s_,
                          end_s - origin_s_});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Reserves a span whose end is filled in by close().
  int open(std::string name, int run, int parent) {
    const double t = now_s();
    return record(std::move(name), run, parent, t, t);
  }
  void close(int id) {
    const double t = now_s() - origin_s_;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }

  /// Duration minus the part of it that child spans cover.
  [[nodiscard]] double self_s(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Span& p = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> kids;
    for (const Span& s : spans_) {
      if (&s != &p && s.parent == id) {
        kids.emplace_back(std::max(s.start_s, p.start_s),
                          std::min(s.end_s, p.end_s));
      }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = p.start_s;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      if (e > lo) {
        covered += e - lo;
        reach = e;
      }
    }
    return (p.end_s - p.start_s) - covered;
  }

  void write_json(std::ostream& os) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = self_s(static_cast<int>(i));
    }
    std::lock_guard<std::mutex> lock(mu_);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"id\": " << i << ", \"name\": " << json_str(s.name)
         << ", \"run\": " << s.run << ", \"parent\": " << s.parent
         << ", \"start_s\": " << num(s.start_s)
         << ", \"end_s\": " << num(s.end_s)
         << ", \"self_s\": " << num(self[i]) << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]";
  }

 private:
  double origin_s_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Span helper that does nothing when the answer is untraced.
class SpanScope {
 public:
  SpanScope(Tracer* tr, std::string name, int run, int parent)
      : tr_(tr), id_(tr != nullptr ? tr->open(std::move(name), run, parent)
                                   : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { close(); }
  void close() {
    if (tr_ != nullptr && !closed_) tr_->close(id_);
    closed_ = true;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tr_;
  int id_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// One answer.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Sample {
  bool traced = false;
  double setup_s = 0.0;
  double answer_s = 0.0;
  double open_s = 0.0;
  double warm_start_s = 0.0;
  double sync_s = 0.0;
  std::vector<double> round_s;  ///< ladder: spans between progress calls
  std::vector<double> point_s;  ///< crowd, traced: per-M call spans
  std::uint64_t log_bytes = 0;
  std::uint64_t operations = 0;  ///< design / crowd points resolved
  hi::obs::Snapshot counts;      ///< the answer's own registry
  std::string digest;            ///< the answer, exact bits
  std::vector<std::string> errors;
  std::vector<Metric> layers;    ///< traced: per-layer metrics, seconds
};

void expect(Sample& s, bool ok, const std::string& what) {
  if (!ok) s.errors.push_back(what);
}

struct Env {
  std::uint64_t seed = 2017;
  int threads = 1;
  fs::path work_dir;
  /// The workload's scenario as JSON, the form the CLIs load it in.
  std::string scenario_json;
  /// ladder_warm: the prepared ladder_cold answer to resume and match.
  std::string cold_digest;
  std::uint64_t cold_simulations = 0;
};

// ---- ladders ---------------------------------------------------------------

hi::dse::EvaluatorSettings ladder_settings(std::uint64_t seed) {
  hi::dse::EvaluatorSettings s;
  s.sim.duration_s = kTsimS;
  s.sim.seed = seed;
  s.sim.collect_latency = true;
  s.runs = kRuns;
  return s;
}

/// Front lines "F key power pdr p95 nlt", then rung lines
/// "R pdr_min feasible key power pdr p95 nlt"; doubles as hex bits.
std::string ladder_digest(const hi::pareto::SweepResult& r) {
  std::ostringstream os;
  const auto point = [&](const hi::pareto::FrontPoint& p) {
    os << ' ' << hex(p.cfg.design_key()) << ' ' << hex(bits(p.power_mw))
       << ' ' << hex(bits(p.pdr)) << ' ' << hex(bits(p.p95_s)) << ' '
       << hex(bits(p.nlt_s));
  };
  for (const hi::pareto::FrontPoint& p : r.front) {
    os << 'F';
    point(p);
    os << '\n';
  }
  for (const hi::pareto::RungResult& rr : r.rungs) {
    os << "R " << hex(bits(rr.pdr_min)) << ' ' << (rr.feasible ? 1 : 0);
    if (rr.feasible) point(rr.best);
    os << '\n';
  }
  return os.str();
}

/// Checks that hold for every seed: the ladder completed, each rung
/// optimum meets its bound, optima rise with the bound, and the front is
/// a non-dominated subset of the rung optima.
void check_ladder_shape(Sample& s, const hi::pareto::SweepResult& r) {
  expect(s, r.complete, "ladder incomplete");
  expect(s, r.rungs.size() == kLadder.size(), "rung count");
  double last_power = -1.0;
  for (std::size_t i = 0; i < r.rungs.size() && i < kLadder.size(); ++i) {
    const hi::pareto::RungResult& rr = r.rungs[i];
    expect(s, rr.pdr_min == kLadder[i], "rung order");
    if (!rr.feasible) continue;
    expect(s, rr.best.pdr >= rr.pdr_min, "rung optimum misses its PDRmin");
    expect(s, rr.best.power_mw >= last_power, "rung optima not monotone");
    last_power = rr.best.power_mw;
  }
  expect(s, !r.front.empty(), "empty front");
  for (const hi::pareto::FrontPoint& p : r.front) {
    const bool is_rung = std::any_of(
        r.rungs.begin(), r.rungs.end(), [&](const hi::pareto::RungResult& rr) {
          return rr.feasible && rr.best.cfg == p.cfg;
        });
    expect(s, is_rung, "front point is not a rung optimum");
    for (const hi::pareto::FrontPoint& q : r.front) {
      expect(s, !hi::pareto::dominates(q, p, {}), "front point dominated");
    }
  }
}

/// Scenario load + evaluator + store open and recovery + warm start: the
/// set-up an answer needs.  The store is declared before the evaluator so
/// the evaluator (whose write-through sink refers to it) is destroyed
/// first.
struct LadderSetup {
  hi::model::Scenario scenario;
  std::unique_ptr<hi::store::EvalStore> store;
  std::unique_ptr<hi::dse::Evaluator> eval;
  /// Clock readings: start, store open begins, warm start begins, end.
  double t_begin = 0.0, t_open = 0.0, t_warm = 0.0, t_end = 0.0;
};

LadderSetup open_ladder(const Env& env, const fs::path& store_path,
                        bool fresh, hi::obs::MetricsRegistry* reg) {
  if (fresh) fs::remove(store_path);
  LadderSetup ls;
  ls.t_begin = now_s();
  std::optional<hi::model::Scenario> sc =
      hi::store::scenario_from_json(env.scenario_json);
  if (!sc.has_value()) throw std::runtime_error("ladder scenario JSON");
  ls.scenario = *sc;
  ls.eval = std::make_unique<hi::dse::Evaluator>(ladder_settings(env.seed));
  ls.t_open = now_s();
  hi::store::StoreOptions so;
  so.metrics = reg;
  ls.store = std::make_unique<hi::store::EvalStore>(store_path.string(), so);
  ls.t_warm = now_s();
  hi::store::warm_start(*ls.eval, *ls.store);
  ls.t_end = now_s();
  return ls;
}

Sample ladder_answer(const Env& env, bool warm, const fs::path& store_path,
                     Tracer* tr, int run) {
  Sample s;
  s.traced = tr != nullptr;
  hi::obs::MetricsRegistry reg;
  LadderSetup ls = open_ladder(env, store_path, !warm, &reg);
  s.setup_s = ls.t_end - ls.t_begin;
  s.open_s = ls.t_warm - ls.t_open;
  s.warm_start_s = ls.t_end - ls.t_warm;
  if (tr != nullptr) {
    const int setup = tr->record("setup", run, -1, ls.t_begin, ls.t_end);
    tr->record("store.open", run, setup, ls.t_open, ls.t_warm);
    tr->record("store.warm_start", run, setup, ls.t_warm, ls.t_end);
  }

  const double a0 = now_s();
  SpanScope answer(tr, "answer", run, -1);
  hi::pareto::SweepOptions opt;
  opt.pdr_ladder = kLadder;
  opt.threads = env.threads;
  opt.metrics = &reg;
  int sweep_id = -1;
  double round_t0 = a0;
  const auto timed_sync = [&] {
    const double b0 = now_s();
    ls.store->sync();
    const double b1 = now_s();
    s.sync_s += b1 - b0;
    if (tr != nullptr) tr->record("store.sync", run, sweep_id, b0, b1);
  };
  opt.progress = [&](int) {
    const double t = now_s();
    s.round_s.push_back(t - round_t0);
    if (tr != nullptr) tr->record("pareto.round", run, sweep_id, round_t0, t);
    timed_sync();  // a killed resume never loses a completed round
    round_t0 = now_s();
  };
  SpanScope sweep(tr, "pareto.ladder_front", run, answer.id());
  sweep_id = sweep.id();
  const hi::pareto::SweepResult res =
      hi::pareto::ladder_front(ls.scenario, *ls.eval, opt);
  timed_sync();
  sweep.close();

  SpanScope verify(tr, "verify", run, answer.id());
  s.digest = ladder_digest(res);
  s.operations = res.evaluated;
  check_ladder_shape(s, res);
  if (warm) {
    expect(s, res.simulations == 0, "warm resume simulated");
    expect(s, res.store_hits == env.cold_simulations,
           "warm resume store hits != cold simulations");
    expect(s, s.digest == env.cold_digest, "warm answer != cold answer");
  } else {
    expect(s, res.simulations > 0 && res.store_hits == 0,
           "cold ladder served from a store");
    expect(s, ls.store->eval_count() == res.simulations,
           "store misses written-through simulations");
  }
  if (env.seed == 2017) {
    expect(s, s.digest == kPinnedLadder2017,
           "answer != pinned seed-2017 answer");
  }
  verify.close();
  answer.close();
  s.answer_s = now_s() - a0;
  s.counts = reg.snapshot();
  std::error_code ec;
  s.log_bytes = fs::file_size(store_path, ec);
  return s;
}

// ---- crowd -----------------------------------------------------------------

/// The hi_crowd default scenario: the full 10-node star, 1 m pitch.
hi::model::CrowdScenario crowd_base() {
  hi::model::CrowdScenario sc;
  sc.cfg.topology = hi::model::Topology::from_mask(0x3FF);
  sc.bodies = kMaxBodies;
  sc.spacing_m = 1.0;
  return sc;
}

hi::net::SimParams crowd_params(std::uint64_t seed) {
  hi::net::SimParams sp;
  sp.duration_s = kTsimS;
  sp.seed = seed;
  return sp;
}

std::string crowd_point_digest(const hi::crowd::SweepPoint& p) {
  const hi::net::SimResult& d = p.eval.detail;
  std::ostringstream os;
  os << "P " << p.bodies << ' ' << hex(bits(p.eval.pdr)) << ' '
     << hex(bits(p.eval.power_mw)) << ' ' << hex(bits(p.eval.nlt_s)) << ' '
     << hex(bits(d.mean_power_mw)) << ' ' << hex(bits(d.crowd.min_body_pdr))
     << ' ' << d.events << ' ' << d.crowd.cross_offered << ' '
     << d.crowd.foreign_heard << ' ' << d.crowd.foreign_decoded << '\n';
  return os.str();
}

struct CrowdSetup {
  hi::model::CrowdScenario base;
  hi::net::SimParams sim;
  hi::crowd::SweepOptions opt;
  double setup_s = 0.0;
};

CrowdSetup open_crowd(const Env& env, hi::obs::MetricsRegistry* reg) {
  const double t0 = now_s();
  CrowdSetup cs;
  std::optional<hi::model::CrowdScenario> sc =
      hi::store::crowd_scenario_from_json(env.scenario_json);
  if (!sc.has_value()) throw std::runtime_error("crowd scenario JSON");
  cs.base = *sc;
  cs.base.validate();
  cs.sim = crowd_params(env.seed);
  for (int m = 1; m <= kMaxBodies; ++m) cs.opt.bodies.push_back(m);
  cs.opt.runs = kRuns;
  cs.opt.threads = env.threads;
  cs.opt.metrics = reg;
  cs.setup_s = now_s() - t0;
  return cs;
}

/// The M = 1 point's contract: bit-equal to the single-body simulator.
void check_crowd_collapse(Sample& s, const hi::crowd::SweepPoint& p,
                          const hi::net::SimResult& ref) {
  const hi::net::SimResult& d = p.eval.detail;
  expect(s, p.bodies == 1, "first crowd point is not M = 1");
  expect(s,
         bits(d.pdr) == bits(ref.pdr) &&
             bits(d.worst_power_mw) == bits(ref.worst_power_mw) &&
             bits(d.mean_power_mw) == bits(ref.mean_power_mw) &&
             bits(d.nlt_s) == bits(ref.nlt_s) && d.events == ref.events,
         "M = 1 crowd point != net::simulate_averaged");
}

Sample crowd_answer(const Env& env, const hi::net::SimResult& m1_ref,
                    Tracer* tr, int run) {
  Sample s;
  s.traced = tr != nullptr;
  hi::obs::MetricsRegistry reg;
  CrowdSetup cs;
  {
    SpanScope setup(tr, "setup", run, -1);
    cs = open_crowd(env, &reg);
  }
  s.setup_s = cs.setup_s;

  const double a0 = now_s();
  SpanScope answer(tr, "answer", run, -1);
  hi::crowd::SweepResult res;
  if (tr == nullptr) {
    res = hi::crowd::sweep(cs.base, cs.sim, cs.opt);
  } else {
    // Traced: the same points, one sweep() call per M on the same number
    // of workers, so each point gets its own span.  Points derive their
    // randomness from the sweep roots alone, so the bits cannot differ.
    SpanScope fan(tr, "crowd.sweep", run, answer.id());
    const int parent = fan.id();
    s.point_s.assign(cs.opt.bodies.size(), 0.0);
    std::vector<std::future<hi::crowd::SweepResult>> futs;
    {
      hi::exec::ThreadPool pool(env.threads);
      for (std::size_t i = 0; i < cs.opt.bodies.size(); ++i) {
        futs.push_back(pool.submit([&, i] {
          hi::crowd::SweepOptions one = cs.opt;
          one.bodies = {cs.opt.bodies[i]};
          one.threads = 0;
          const double p0 = now_s();
          hi::crowd::SweepResult r = hi::crowd::sweep(cs.base, cs.sim, one);
          const double p1 = now_s();
          s.point_s[i] = p1 - p0;
          tr->record("crowd.point.m" + std::to_string(cs.opt.bodies[i]), run,
                     parent, p0, p1);
          return r;
        }));
      }
      for (auto& f : futs) {
        const hi::crowd::SweepResult r = f.get();
        res.points.insert(res.points.end(), r.points.begin(), r.points.end());
        res.simulations += r.simulations;
        res.store_hits += r.store_hits;
      }
    }
  }

  SpanScope verify(tr, "verify", run, answer.id());
  expect(s, res.points.size() == cs.opt.bodies.size(), "crowd point count");
  expect(s, res.simulations == res.points.size() && res.store_hits == 0,
         "crowd points not all simulated");
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    const hi::crowd::SweepPoint& p = res.points[i];
    expect(s, p.bodies == cs.opt.bodies[i], "crowd point order");
    expect(s, p.eval.pdr >= 0.0 && p.eval.pdr <= 1.0, "crowd PDR range");
    expect(s, p.eval.detail.crowd.present, "crowd summary missing");
    s.digest += crowd_point_digest(p);
  }
  if (!res.points.empty()) check_crowd_collapse(s, res.points[0], m1_ref);
  s.operations = res.points.size();
  verify.close();
  answer.close();
  s.answer_s = now_s() - a0;
  s.counts = reg.snapshot();
  return s;
}

// ---------------------------------------------------------------------------
// Metrics.

double counter(const hi::obs::Snapshot& c, std::string_view name) {
  return static_cast<double>(c.counter(name));
}

double hist_sum(const hi::obs::Snapshot& c, std::string_view name) {
  const hi::obs::HistogramSummary* h = c.histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

double hist_max(const hi::obs::Snapshot& c, std::string_view name) {
  const hi::obs::HistogramSummary* h = c.histogram(name);
  return h != nullptr ? h->max : 0.0;
}

/// Counts that repeat exactly for one seed.  exec.* batching counters
/// other than exec.requests are schedule-dependent by design (DESIGN.md
/// §8), so they are left out.
std::map<std::string, std::uint64_t> exact_counts(const hi::obs::Snapshot& c) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : c.counters) {
    if (name.rfind("exec.", 0) == 0 && name != "exec.requests") continue;
    out.emplace(name, v);
  }
  return out;
}

/// Per-layer metrics of one traced answer (README.md "Per-layer metrics").
std::vector<Metric> layer_metrics(const Sample& s, int threads) {
  const hi::obs::Snapshot& c = s.counts;
  const double milp_s = hist_sum(c, "milp.solve_s");
  const double sim_s = hist_sum(c, "dse.simulate_s");
  const double batch_s = hist_sum(c, "exec.batch_s");
  const double events = counter(c, "des.events");
  double point_sum = 0.0;
  for (double p : s.point_s) point_sum += p;
  // Simulation busy time: the evaluator's timer on the ladders, the
  // per-point spans on the crowd sweep (which has no evaluator).
  const double busy_s = sim_s > 0.0 ? sim_s : point_sum;
  const double offered = counter(c, "net.medium.deliveries_offered");
  const double samples = offered + counter(c, "net.medium.below_sensitivity");
  const double thr = static_cast<double>(threads);

  std::vector<Metric> m = {
      {"milp.solve_s", "s", milp_s},
      {"milp.solves", "count", counter(c, "milp.solves")},
      {"milp.lp_pivots", "count", counter(c, "milp.lp_pivots")},
      {"milp.bnb_nodes", "count", counter(c, "milp.bnb_nodes")},
      {"milp.pool_solutions", "count", counter(c, "milp.pool_solutions")},
      {"dse.simulate_s", "s", sim_s},
      {"dse.simulate_max_s", "s", hist_max(c, "dse.simulate_s")},
      {"dse.simulations", "count", counter(c, "dse.simulations")},
      {"dse.store_hits", "count", counter(c, "dse.store_hits")},
      {"dse.cache_hits", "count", counter(c, "dse.cache_hits")},
      {"exec.batch_s", "s", batch_s},
      {"exec.requests", "count", counter(c, "exec.requests")},
      {"exec.utilization", "ratio", ratio(sim_s, thr * batch_s)},
      {"des.events", "count", events},
      {"des.heap_sift", "count", counter(c, "des.heap_sift")},
      {"des.sift_per_event", "ratio",
       ratio(counter(c, "des.heap_sift"), events)},
      {"des.events_per_s", "events/s", ratio(events, s.answer_s)},
      {"net.host_ns_per_event", "ns", ratio(busy_s * 1e9, events)},
      {"net.medium.transmissions", "count",
       counter(c, "net.medium.transmissions")},
      {"channel.samples", "count", samples},
      {"net.medium.offered_ratio", "ratio", ratio(offered, samples)},
      {"net.radio.decode_ratio", "ratio",
       ratio(counter(c, "net.radio.rx_ok"), offered)},
      {"net.mac.backoffs", "count", counter(c, "net.mac.backoffs")},
      {"store.open_s", "s", s.open_s},
      {"store.warm_start_s", "s", s.warm_start_s},
      {"store.sync_s", "s", s.sync_s},
      {"store.records_loaded", "count", counter(c, "store.records_loaded")},
      {"store.evals_appended", "count", counter(c, "store.evals_appended")},
      {"store.log_bytes", "bytes", static_cast<double>(s.log_bytes)},
      {"pareto.milp_rounds", "count", counter(c, "pareto.milp_rounds")},
      {"pareto.front_size", "count", c.gauge("pareto.front_size")},
      {"pareto.round_p50_s", "s", median(s.round_s)},
      {"pareto.round_max_s", "s",
       s.round_s.empty()
           ? 0.0
           : *std::max_element(s.round_s.begin(), s.round_s.end())},
      {"pareto.self_s", "s",
       s.round_s.empty() ? 0.0 : s.answer_s - milp_s - batch_s},
  };
  for (int mi = 1; mi <= kMaxBodies; ++mi) {
    const std::size_t i = static_cast<std::size_t>(mi - 1);
    m.push_back({"crowd.point_s.m" + std::to_string(mi), "s",
                 i < s.point_s.size() ? s.point_s[i] : 0.0});
  }
  m.push_back(
      {"crowd.utilization", "ratio", ratio(point_sum, thr * s.answer_s)});
  m.push_back({"net.crowd_cross_offered", "count",
               counter(c, "net.crowd_cross_offered")});
  m.push_back({"net.crowd_foreign_decoded", "count",
               counter(c, "net.crowd_foreign_decoded")});
  return m;
}

/// The per-layer list as the result line carries it: each busy time
/// becomes its share of the answer (store open and warm start: of the
/// set-up), so a layer a workload never calls reads a 0 ratio, not a
/// constant 0 s.  net.host_ns_per_event stays in the readable report
/// only (des.events_per_s carries the same rate).
std::vector<Metric> as_shares(const std::vector<Metric>& m, const Sample& s) {
  std::vector<Metric> out;
  for (const Metric& x : m) {
    if (x.unit == "ns") continue;
    if (x.unit != "s") {
      out.push_back(x);
      continue;
    }
    std::string name = x.name;  // "milp.solve_s", "crowd.point_s.m3"
    name.replace(name.rfind("_s"), 2, "_share");
    const bool of_setup = name.rfind("store.open", 0) == 0 ||
                          name.rfind("store.warm_start", 0) == 0;
    out.push_back({name, "ratio",
                   ratio(x.value, of_setup ? s.setup_s : s.answer_s)});
  }
  return out;
}

/// Element-wise median of equally shaped metric lists.
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& per) {
  std::vector<Metric> out = per.front();
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::vector<double> v;
    for (const auto& p : per) v.push_back(p[k].value);
    out[k].value = median(v);
  }
  return out;
}

/// The accounting every traced answer must reconcile (README.md "Checks").
void reconcile(Sample& s, const std::vector<Metric>& m) {
  const auto get = [&](const std::string& name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  expect(s,
         get("exec.requests") == get("dse.simulations") +
                                     get("dse.store_hits") +
                                     get("dse.cache_hits"),
         "exec.requests != simulations + store hits + cache hits");
  expect(s, get("milp.solve_s") + get("exec.batch_s") <= s.answer_s,
         "milp.solve_s + exec.batch_s > answer_s");
  expect(s, get("exec.utilization") <= 1.0, "exec.utilization > 1");
  expect(s, get("crowd.utilization") <= 1.0, "crowd.utilization > 1");
}

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  std::uint64_t seed = 2017;
  double seconds = 10.0;
  int trace = 0;
  fs::path work_dir = ".";
  fs::path warm_cache;
  fs::path prepare;
  std::string rev = "unknown";
};

int usage() {
  std::cerr << "usage: hi_perfbench --workload ladder_cold|ladder_warm|"
               "crowd_sweep --seed N --seconds S --trace 0|1\n"
               "                    --work-dir DIR [--warm-cache DIR] "
               "[--rev REV]\n"
               "       hi_perfbench --prepare DIR --seed N\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--warm-cache") {
      a.warm_cache = v;
    } else if (k == "--prepare") {
      a.prepare = v;
    } else if (k == "--rev") {
      a.rev = v;
    } else {
      return false;
    }
  }
  if (!a.prepare.empty()) return true;
  return a.workload == "ladder_cold" || a.workload == "ladder_warm" ||
         a.workload == "crowd_sweep";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

std::string host_line(const Args& a, int threads) {
  std::ostringstream os;
  os << "{\"cpu\": " << json_str(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << threads
     << ", \"build_type\": " << json_str(HI_PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_str(HI_PERFBENCH_COMPILER)
     << ", \"rev\": " << json_str(a.rev) << "}";
  return os.str();
}

/// One ladder_cold answer into DIR/ladder.store; its answer and
/// simulation count go beside it for ladder_warm to check against.
int prepare(const Args& a) {
  Env env;
  env.seed = a.seed;
  env.threads = worker_threads();
  env.scenario_json = hi::store::scenario_to_json(hi::model::Scenario{});
  fs::create_directories(a.prepare);
  const Sample s =
      ladder_answer(env, false, a.prepare / "ladder.store", nullptr, 0);
  if (!s.errors.empty()) {
    for (const std::string& e : s.errors) {
      std::cerr << "prepare: " << e << "\n";
    }
    return 1;
  }
  write_file(a.prepare / "answer.txt", s.digest);
  write_file(a.prepare / "simulations.txt",
             std::to_string(s.counts.counter("dse.simulations")) + "\n");
  std::cerr << "prepared ladder store for seed " << a.seed << " ("
            << s.counts.counter("dse.simulations") << " simulations, "
            << num(s.answer_s) << " s)\n";
  return 0;
}

int run(const Args& a) {
  Env env;
  env.seed = a.seed;
  env.threads = worker_threads();
  env.work_dir = a.work_dir;
  fs::create_directories(env.work_dir);
  const double origin = now_s();
  Tracer tracer(origin);

  // Per-workload answer function and set-up-only function.
  std::function<Sample(Tracer*, int)> answer;
  std::function<double()> setup_only;
  const fs::path work_store = env.work_dir / (a.workload + ".store");
  std::optional<hi::net::SimResult> m1_ref;
  if (a.workload == "ladder_cold" || a.workload == "ladder_warm") {
    const bool warm = a.workload == "ladder_warm";
    env.scenario_json = hi::store::scenario_to_json(hi::model::Scenario{});
    if (warm) {
      if (a.warm_cache.empty()) {
        std::cerr << "hi_perfbench: ladder_warm needs --warm-cache\n";
        return 2;
      }
      env.cold_digest = read_file(a.warm_cache / "answer.txt");
      env.cold_simulations =
          std::stoull(read_file(a.warm_cache / "simulations.txt"));
      fs::copy_file(a.warm_cache / "ladder.store", work_store,
                    fs::copy_options::overwrite_existing);
    }
    answer = [&env, warm, work_store](Tracer* tr, int run_id) {
      return ladder_answer(env, warm, work_store, tr, run_id);
    };
    setup_only = [&env, warm, work_store] {
      const LadderSetup ls = open_ladder(env, work_store, !warm, nullptr);
      return ls.t_end - ls.t_begin;
    };
  } else {
    env.scenario_json = hi::store::crowd_scenario_to_json(crowd_base());
    const CrowdSetup cs = open_crowd(env, nullptr);
    hi::model::CrowdScenario one = cs.base;
    one.bodies = 1;
    m1_ref = hi::net::simulate_averaged(one.cfg, cs.sim, kRuns);
    answer = [&env, &m1_ref](Tracer* tr, int run_id) {
      return crowd_answer(env, *m1_ref, tr, run_id);
    };
    setup_only = [&env] { return open_crowd(env, nullptr).setup_s; };
  }

  // The measured closed loop.  Traced runs alternate untraced and traced
  // answers so both see the same machine state.
  std::vector<double> setups;
  std::vector<Sample> samples;
  const double w0 = now_s();
  for (int i = 0;; ++i) {
    const double burst_s =
        samples.empty() ? kSetupBurstS
                        : std::min(kSetupBurstS,
                                   kSetupShare * samples.back().answer_s);
    const double b0 = now_s();
    for (int k = 0; k < kMaxBurst && (k == 0 || now_s() - b0 < burst_s);
         ++k) {
      setups.push_back(setup_only());
    }
    const bool traced = a.trace == 1 && i % 2 == 1;
    samples.push_back(answer(traced ? &tracer : nullptr, i));
    // Stop at the answer that ends nearest the window's end: one more
    // would overrun it by more than half an answer.
    const bool enough = a.trace == 0 ? i >= 0 : i >= 1;
    if (enough &&
        now_s() - w0 + 0.5 * samples.back().answer_s >= a.seconds) {
      break;
    }
  }

  // ---- checks across answers ----
  const std::string& ref_digest = samples.front().digest;
  const auto ref_counts = exact_counts(samples.front().counts);
  std::vector<double> untraced_s, traced_s;
  for (Sample& s : samples) {
    expect(s, s.digest == ref_digest, "answer differs between repeats");
    expect(s, exact_counts(s.counts) == ref_counts,
           "counts differ between repeats");
    setups.push_back(s.setup_s);
    (s.traced ? traced_s : untraced_s).push_back(s.answer_s);
  }

  std::vector<Metric> metrics;   // the result line
  std::vector<Metric> readable;  // the report lines
  if (a.trace == 0) {
    metrics = {{"answer_s", "s", mean(untraced_s)},
               {"setup_s", "s", interdecile_mean(setups)},
               {"peak_rss_mb", "MiB", peak_rss_mib()}};
    readable = metrics;
  } else {
    // Per-layer values: the median over traced answers of each metric.
    std::vector<std::vector<Metric>> per, shares;
    for (Sample& s : samples) {
      if (!s.traced) continue;
      s.layers = layer_metrics(s, env.threads);
      reconcile(s, s.layers);
      per.push_back(s.layers);
      shares.push_back(as_shares(per.back(), s));
    }
    readable = median_metrics(per);
    metrics = median_metrics(shares);
    const double tr_s = mean(traced_s), un_s = mean(untraced_s);
    for (std::vector<Metric>* list : {&readable, &metrics}) {
      list->push_back({"trace.answer_s", "s", tr_s});
      list->push_back({"trace.untraced_answer_s", "s", un_s});
      list->push_back({"trace.overhead", "ratio", ratio(tr_s - un_s, un_s)});
    }
  }

  // ---- tally ----
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const Sample& s : samples) {
    attempted += s.operations;
    if (!s.errors.empty()) {
      failed += s.operations;
      for (const std::string& e : s.errors) errors.push_back(e);
    }
  }
  if (attempted == 0) {
    attempted = 1;
    failed = 1;
    errors.push_back("no operations resolved");
  }

  // ---- human-readable report ----
  const Sample& first = samples.front();
  const double events = counter(first.counts, "des.events");
  std::cout << "host " << host_line(a, env.threads) << "\n";
  std::cout << "workload " << a.workload << " seed " << a.seed << " trace "
            << a.trace << ": " << samples.size() << " answers ("
            << untraced_s.size() << " untraced, " << traced_s.size()
            << " traced), " << setups.size() << " set-ups\n";
  for (const Metric& m : readable) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  }
  if (a.trace == 0) {
    // Median and the highest decile with at least ten answers beyond it.
    const std::size_t n = untraced_s.size();
    std::cout << "  answer_s median = " << num(median(untraced_s))
              << " s, min = " << num(quantile(untraced_s, 0.0))
              << " s, max = " << num(quantile(untraced_s, 1.0)) << " s";
    for (int d = 9; d >= 5; --d) {
      if (static_cast<double>(n) * (10 - d) / 10.0 >= 10.0) {
        std::cout << ", p" << d * 10 << " = "
                  << num(quantile(untraced_s, d / 10.0)) << " s";
        break;
      }
    }
    std::cout << " (" << n << " answers)\n";
    if (events > 0.0) {
      std::cout << "  events_per_s = " << num(events / mean(untraced_s))
                << " events/s\n";
    } else {
      std::cout << "  events_per_s = n/a (no simulation on this workload)\n";
    }
  } else if (a.workload == "crowd_sweep") {
    std::cout << "  (crowd runs do not flush net.medium.*, net.radio.*, "
                 "net.mac.* or des.heap_sift: those read 0 here)\n";
  }
  std::cout << "  error_rate = "
            << num(static_cast<double>(failed) / static_cast<double>(attempted))
            << " ratio (" << failed << " failed / " << attempted
            << " attempted)\n";
  for (const std::string& e : errors) {
    std::cout << "  FAILED CHECK: " << e << "\n";
  }

  // ---- spans and raw samples, written when the run ends ----
  {
    std::ostringstream os;
    os << "{\"host\": " << host_line(a, env.threads)
       << ",\n \"workload\": " << json_str(a.workload) << ", \"seed\": "
       << a.seed << ", \"trace\": " << a.trace << ",\n \"answers\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      os << (i ? ", " : "") << "{\"traced\": " << (s.traced ? "true" : "false")
         << ", \"answer_s\": " << num(s.answer_s)
         << ", \"setup_s\": " << num(s.setup_s);
      if (s.traced) {
        os << ", \"layers\": {";
        for (std::size_t k = 0; k < s.layers.size(); ++k) {
          os << (k ? ", " : "") << json_str(s.layers[k].name) << ": "
             << num(s.layers[k].value);
        }
        os << "}";
      }
      os << "}";
    }
    os << "],\n \"counts\": {";
    bool comma = false;
    for (const auto& [name, v] : exact_counts(first.counts)) {
      os << (comma ? ", " : "") << json_str(name) << ": " << v;
      comma = true;
    }
    os << "},\n \"spans\": ";
    tracer.write_json(os);
    os << "}\n";
    write_file(env.work_dir / (a.workload + "-seed" + std::to_string(a.seed) +
                               "-trace" + std::to_string(a.trace) + ".json"),
               os.str());
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_str(metrics[i].name)
              << ": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return usage();
  try {
    return a.prepare.empty() ? run(a) : prepare(a);
  } catch (const std::exception& e) {
    std::cerr << "hi_perfbench: " << e.what() << "\n";
    return 1;
  }
}
