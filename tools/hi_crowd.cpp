// hi_crowd — crowd (multi-body) simulation runner (DESIGN.md §15).  A
// thin argv shim over hi::crowd: the simulation and sweep logic live in
// src/crowd/, this binary parses flags, wires an optional durable
// hi::store, and emits the sweep as versioned `hi-crowd/v1` JSON.
//
//   hi_crowd --bodies 8 --sweep         PDR vs crowd size, M = 1..8
//   hi_crowd --bodies 4                 one point, M = 4
//   hi_crowd --list 1,2,4,8             explicit body-count list
//   hi_crowd --store FILE --resume ...  durable: completed points are
//                                       served from FILE; a rerun after a
//                                       crash re-simulates zero points
//   hi_crowd --dump-scenario            print the default crowd scenario
//
// Exit codes: 0 success, 2 usage error.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_string.hpp"
#include "crowd/crowd.hpp"
#include "store/crowd_codec.hpp"
#include "store/store.hpp"

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_f64(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_int_list(const std::string& list, std::vector<int>& out) {
  out.clear();
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::uint64_t v = 0;
    if (!parse_u64(item.c_str(), v) || v < 1 || v > 64) return false;
    out.push_back(static_cast<int>(v));
  }
  return !out.empty();
}

/// The default crowd scenario: the paper's full 10-node star network
/// replicated on a grid, one meter apart.
hi::model::CrowdScenario default_scenario() {
  hi::model::CrowdScenario sc;
  sc.cfg.topology = hi::model::Topology::from_mask(0x3FF);
  return sc;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "       " << argv0 << " --dump-scenario\n"
      << "\n"
      << "options:\n"
      << "  --bodies M        crowd size (default 1)\n"
      << "  --sweep           sweep M = 1..bodies instead of one point\n"
      << "  --list M1,M2,...  explicit body-count list (overrides --sweep)\n"
      << "  --spacing M       grid pitch in meters (default 1)\n"
      << "  --cols N          grid columns (default 0 = square-ish)\n"
      << "  --scenario FILE   crowd scenario JSON (see --dump-scenario)\n"
      << "  --store FILE      durable evaluation store (write-through)\n"
      << "  --resume          require --store; assert-friendly alias — a\n"
      << "                    warm store serves completed points as hits\n"
      << "  --out FILE        write the JSON report to FILE (default stdout)\n"
      << "  --threads N       worker threads (default 0 = serial)\n"
      << "  --tsim SEC        simulated seconds per run (default 60)\n"
      << "  --runs N          replications per point (default 3)\n"
      << "  --seed N          experiment seed root (default 1)\n"
      << "  --kill-after-points N  SIGKILL self after N completed points\n"
      << "                    (crash-injection test hook; the store is\n"
      << "                    synced after every point first)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int bodies = 1;
  bool sweep_mode = false;
  bool dump_scenario = false;
  bool resume = false;
  std::vector<int> list;
  std::string scenario_path, store_path, out_path;
  int kill_after_points = -1;
  hi::model::CrowdScenario base = default_scenario();
  hi::net::SimParams sim;
  sim.duration_s = 60.0;
  hi::crowd::SweepOptions opt;
  opt.runs = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t u = 0;
    double f = 0.0;
    const bool has_value = i + 1 < argc;
    if (arg == "--bodies" && has_value && parse_u64(argv[++i], u) && u >= 1 &&
        u <= 64) {
      bodies = static_cast<int>(u);
    } else if (arg == "--sweep") {
      sweep_mode = true;
    } else if (arg == "--list" && has_value) {
      if (!parse_int_list(argv[++i], list)) return usage(argv[0]);
    } else if (arg == "--spacing" && has_value && parse_f64(argv[++i], f) &&
               f > 0.0) {
      base.spacing_m = f;
    } else if (arg == "--cols" && has_value && parse_u64(argv[++i], u)) {
      base.cols = static_cast<int>(u);
    } else if (arg == "--scenario" && has_value) {
      scenario_path = argv[++i];
    } else if (arg == "--store" && has_value) {
      store_path = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--threads" && has_value && parse_u64(argv[++i], u)) {
      opt.threads = static_cast<int>(u);
    } else if (arg == "--tsim" && has_value && parse_f64(argv[++i], f) &&
               f > 0.0) {
      sim.duration_s = f;
    } else if (arg == "--runs" && has_value && parse_u64(argv[++i], u) &&
               u >= 1) {
      opt.runs = static_cast<int>(u);
    } else if (arg == "--seed" && has_value && parse_u64(argv[++i], u)) {
      sim.seed = u;
    } else if (arg == "--kill-after-points" && has_value &&
               parse_u64(argv[++i], u)) {
      kill_after_points = static_cast<int>(u);
    } else if (arg == "--dump-scenario") {
      dump_scenario = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (resume && store_path.empty()) {
    std::cerr << "hi_crowd: --resume requires --store\n";
    return 2;
  }

  // ---- resolve the scenario ----------------------------------------------
  if (!scenario_path.empty()) {
    std::ifstream in(scenario_path);
    if (!in) {
      std::cerr << "hi_crowd: cannot read " << scenario_path << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto parsed = hi::store::crowd_scenario_from_json(buf.str(), &err);
    if (!parsed.has_value()) {
      std::cerr << "hi_crowd: invalid crowd scenario JSON in " << scenario_path
                << ": " << err << "\n";
      return 2;
    }
    base = *parsed;
    if (base.bodies > bodies) bodies = base.bodies;
  }
  base.bodies = bodies;
  if (dump_scenario) {
    std::cout << hi::store::crowd_scenario_to_json(base);
    return 0;
  }

  if (!list.empty()) {
    opt.bodies = list;
  } else if (sweep_mode) {
    for (int m = 1; m <= bodies; ++m) opt.bodies.push_back(m);
  } else {
    opt.bodies.push_back(bodies);
  }

  // ---- optional durable store --------------------------------------------
  std::unique_ptr<hi::store::EvalStore> store;
  if (!store_path.empty()) {
    store = std::make_unique<hi::store::EvalStore>(store_path);
    opt.store = store.get();
  }

  int completed = 0;
  opt.progress = [&](const hi::crowd::SweepPoint&) {
    ++completed;
    if (store != nullptr) {
      store->sync();  // a killed run never loses a completed point
    }
    if (kill_after_points >= 0 && completed >= kill_after_points) {
      std::raise(SIGKILL);
    }
  };

  const hi::crowd::SweepResult res = hi::crowd::sweep(base, sim, opt);

  // ---- hi-crowd/v1 report ------------------------------------------------
  hi::JsonWriter w;
  w.object(hi::JsonWriter::kBlock).field("schema", "hi-crowd/v1");
  w.field("scenario_fp", hi::store::crowd_fingerprint(base).hex());
  w.key("settings").object(hi::JsonWriter::kInline);
  w.field("tsim_s", sim.duration_s).field("runs", opt.runs);
  w.field("seed", sim.seed).field("spacing_m", base.spacing_m);
  w.field("capture_db", sim.capture_db).end();
  w.key("points").array(hi::JsonWriter::kBlock);
  for (const hi::crowd::SweepPoint& p : res.points) {
    const hi::net::SimResult& d = p.eval.detail;
    w.object(hi::JsonWriter::kInline).field("bodies", p.bodies);
    w.field("pdr", p.eval.pdr).field("min_body_pdr", d.crowd.min_body_pdr);
    w.field("worst_power_mw", p.eval.power_mw);
    w.field("mean_power_mw", d.mean_power_mw).field("nlt_s", p.eval.nlt_s);
    w.field("cross_offered", d.crowd.cross_offered);
    w.field("cross_below_sensitivity", d.crowd.cross_below_sensitivity);
    w.field("foreign_heard", d.crowd.foreign_heard);
    w.field("foreign_decoded", d.crowd.foreign_decoded);
    w.field("from_store", p.from_store);
    w.key("per_body").array(hi::JsonWriter::kInline);
    for (const hi::net::NodeResult& n : d.nodes) {
      w.object(hi::JsonWriter::kInline).field("body", n.location);
      w.field("pdr", n.pdr).field("worst_power_mw", n.power_mw).end();
    }
    w.end().end();
  }
  w.end().key("store").object(hi::JsonWriter::kInline);
  w.field("store_hits", res.store_hits).field("simulations", res.simulations);
  w.end().field("complete", true);
  const std::string report = w.end().take();

  if (out_path.empty()) {
    std::cout << report;
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "hi_crowd: cannot write " << out_path << "\n";
      return 2;
    }
    out << report;
  }
  return 0;
}
