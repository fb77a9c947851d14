// hi_campaign — the resumable (and now sharded multi-process) campaign
// runner.  This file is deliberately a thin argv shim: all campaign
// logic lives in hi::campaign (src/campaign/) — CampaignPlan resolves
// the grid, run_single()/run_fleet() execute it, and the report types
// own the output formats.  Tests drive the library directly; this
// binary only parses flags and maps results to exit codes.
//
//   hi_campaign --store FILE [options]        single-process campaign
//   hi_campaign --shard-dir DIR --workers N   sharded worker fleet with
//                                             work-stealing dispatch
//   hi_campaign --merge DIR                   fold DIR's shard stores
//                                             into DIR/merged.store
//   hi_campaign --audit FILE                  integrity-scan a store
//   hi_campaign --compact FILE                rewrite a store, dropping
//                                             superseded/corrupt records
//   hi_campaign --dump-scenario               print the paper's Sec. 4.1
//                                             scenario as editable JSON
//
// Exit codes: 0 success (fleet: campaign complete), 2 usage error,
// 3 fleet ran but the grid is incomplete (re-run with --resume).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "cli_args.hpp"
#include "obs/metrics.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace {

using hi::cli::parse_f64;
using hi::cli::parse_pdr_list;
using hi::cli::parse_u64;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --store FILE [options]\n"
      << "       " << argv0 << " --shard-dir DIR --workers N [options]\n"
      << "       " << argv0
      << " --audit FILE | --compact FILE | --merge DIR\n"
      << "       " << argv0 << " --dump-scenario\n"
      << "\n"
      << "campaign options:\n"
      << "  --scenario FILE   scenario JSON (repeatable; see --dump-scenario)\n"
      << "  --gen-seed N      generated check scenario (repeatable)\n"
      << "  --pdr-min LIST    comma-separated PDRmin grid (default "
         "0.5,0.7,0.9)\n"
      << "  --explorer NAME   alg1 | exhaustive | annealing | fast-ilp\n"
      << "                    (default alg1)\n"
      << "  --budget N        explorer iteration budget (default: strategy's)\n"
      << "  --gamma N         Bertsimas-Sim protection budget (default 0)\n"
      << "  --realizations N  independent channel realizations per design\n"
      << "                    (default 1; >1 reports worst-case + CI)\n"
      << "  --confidence P    PDR confidence-interval level (default 0.95)\n"
      << "  --threads N       worker threads per cell (default 0 = serial)\n"
      << "  --tsim SEC        Tsim for JSON scenarios (default 600)\n"
      << "  --runs N          replications per design point (default 3)\n"
      << "  --seed N          experiment seed root (default 1)\n"
      << "  --fsync MODE      none | checkpoint | always (default checkpoint)\n"
      << "  --resume          skip cells already checkpointed in the store\n"
      << "  --json            machine-readable report on stdout\n"
      << "  --cell-delay-ms N sleep after each completed cell (test hook)\n"
      << "\n"
      << "fleet options (with --shard-dir):\n"
      << "  --workers N       worker processes (each owns one shard store)\n"
      << "  --lease-ms N      claim lease before a silent worker is stolen\n"
      << "                    from (default 2000)\n"
      << "  --no-steal        never take over stale claims (crash -> exit 3;\n"
      << "                    finish with --resume)\n"
      << "  --kill-slot N     fault injection: worker N SIGKILLs itself...\n"
      << "  --kill-after-cells N  ...after completing N cells (test hook)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hi::campaign::PlanSpec spec;
  hi::campaign::RunConfig cfg;
  std::string audit_path;
  std::string compact_path;
  std::string merge_dir;
  bool dump_scenario = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t u = 0;
    const bool has_value = i + 1 < argc;
    if (arg == "--store" && has_value) {
      cfg.store_path = argv[++i];
    } else if (arg == "--shard-dir" && has_value) {
      cfg.shard_dir = argv[++i];
    } else if (arg == "--workers" && has_value && parse_u64(argv[++i], u)) {
      cfg.workers = static_cast<int>(u);
    } else if (arg == "--lease-ms" && has_value && parse_u64(argv[++i], u) &&
               u > 0) {
      cfg.lease_ms = static_cast<int>(u);
    } else if (arg == "--no-steal") {
      cfg.steal = false;
    } else if (arg == "--kill-slot" && has_value && parse_u64(argv[++i], u)) {
      cfg.kill_slot = static_cast<int>(u);
    } else if (arg == "--kill-after-cells" && has_value &&
               parse_u64(argv[++i], u) && u > 0) {
      cfg.kill_after_cells = u;
    } else if (arg == "--audit" && has_value) {
      audit_path = argv[++i];
    } else if (arg == "--compact" && has_value) {
      compact_path = argv[++i];
    } else if (arg == "--merge" && has_value) {
      merge_dir = argv[++i];
    } else if (arg == "--dump-scenario") {
      dump_scenario = true;
    } else if (arg == "--scenario" && has_value) {
      spec.scenario_files.emplace_back(argv[++i]);
    } else if (arg == "--gen-seed" && has_value && parse_u64(argv[++i], u)) {
      spec.gen_seeds.push_back(u);
    } else if (arg == "--pdr-min" && has_value &&
               parse_pdr_list(argv[i + 1], spec.pdr_grid)) {
      ++i;
    } else if (arg == "--explorer" && has_value) {
      const std::string name = argv[++i];
      if (name == "alg1") {
        spec.explorer = hi::dse::ExplorerKind::kAlgorithm1;
      } else if (name == "exhaustive") {
        spec.explorer = hi::dse::ExplorerKind::kExhaustive;
      } else if (name == "annealing") {
        spec.explorer = hi::dse::ExplorerKind::kAnnealing;
      } else if (name == "fast-ilp") {
        spec.explorer = hi::dse::ExplorerKind::kFastIlp;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--budget" && has_value && parse_u64(argv[++i], u)) {
      spec.budget = static_cast<int>(u);
    } else if (arg == "--gamma" && has_value && parse_u64(argv[++i], u)) {
      spec.robust.gamma = static_cast<int>(u);
    } else if (arg == "--realizations" && has_value && parse_u64(argv[++i], u) &&
               u > 0) {
      spec.robust.realizations = static_cast<int>(u);
    } else if (arg == "--confidence" && has_value &&
               parse_f64(argv[i + 1], spec.robust.confidence)) {
      ++i;
    } else if (arg == "--threads" && has_value && parse_u64(argv[++i], u)) {
      spec.threads = static_cast<int>(u);
    } else if (arg == "--tsim" && has_value &&
               parse_f64(argv[i + 1], spec.tsim_s)) {
      ++i;
    } else if (arg == "--runs" && has_value && parse_u64(argv[++i], u)) {
      spec.runs = static_cast<int>(u);
    } else if (arg == "--seed" && has_value && parse_u64(argv[++i], u)) {
      spec.seed = u;
    } else if (arg == "--fsync" && has_value) {
      const std::string mode = argv[++i];
      if (mode == "none") {
        cfg.fsync = hi::store::FsyncPolicy::kNone;
      } else if (mode == "checkpoint") {
        cfg.fsync = hi::store::FsyncPolicy::kCheckpoint;
      } else if (mode == "always") {
        cfg.fsync = hi::store::FsyncPolicy::kAlways;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--resume") {
      cfg.resume = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--cell-delay-ms" && has_value &&
               parse_u64(argv[++i], u)) {
      cfg.cell_delay_ms = static_cast<int>(u);
    } else {
      return usage(argv[0]);
    }
  }

  if (dump_scenario) {
    std::cout << hi::store::scenario_to_json(hi::model::Scenario{});
    return 0;
  }
  if (!audit_path.empty()) {
    const hi::store::RecoveryStats st = hi::store::EvalStore::audit(audit_path);
    std::cout << "records=" << st.records
              << " corrupt_dropped=" << st.corrupt_dropped
              << " tail_truncated=" << (st.tail_truncated ? "yes" : "no")
              << " desynced=" << (st.desynced ? "yes" : "no")
              << " truncated_bytes=" << st.truncated_bytes
              << (st.clean() ? "  [clean]" : "  [repaired on next open]")
              << "\n";
    return st.clean() ? 0 : 1;
  }
  if (!compact_path.empty()) {
    const auto st = hi::store::EvalStore::compact(compact_path);
    std::cout << "compacted: " << st.records_before << " -> "
              << st.records_after << " records, " << st.bytes_before << " -> "
              << st.bytes_after << " bytes\n";
    return 0;
  }
  if (!merge_dir.empty()) {
    const auto st = hi::store::EvalStore::merge(
        hi::campaign::list_shards(merge_dir),
        hi::campaign::merged_path(merge_dir));
    std::cout << "merged " << st.shards.size() << " shard(s): " << st.evals
              << " evaluations / " << st.cells << " checkpoints ("
              << st.duplicate_evals << " duplicate evals, "
              << st.superseded_cells << " duplicate checkpoints folded)"
              << (st.clean() ? "" : "  [shard damage dropped]") << " -> "
              << hi::campaign::merged_path(merge_dir) << "\n";
    return st.clean() ? 0 : 1;
  }

  const bool fleet_mode = !cfg.shard_dir.empty() || cfg.workers > 0;
  if (fleet_mode && (cfg.shard_dir.empty() || cfg.workers < 1)) {
    return usage(argv[0]);
  }
  if (!fleet_mode && cfg.store_path.empty()) {
    return usage(argv[0]);
  }

  std::string err;
  const auto plan = hi::campaign::CampaignPlan::build(spec, &err);
  if (!plan) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  hi::obs::MetricsRegistry metrics;
  if (fleet_mode) {
    const hi::campaign::FleetReport fleet =
        hi::campaign::run_fleet(*plan, cfg, &metrics);
    fleet.print(std::cout, json);
    return fleet.complete ? 0 : 3;
  }
  if (!json) {
    cfg.recovery_warnings = &std::cout;
  }
  const hi::campaign::CampaignReport report =
      hi::campaign::run_single(*plan, cfg, &metrics);
  report.print(std::cout, json);
  return 0;
}
