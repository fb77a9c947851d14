// hi-opt: hi::campaign — the campaign runner (single-process and fleet).
//
// run_single() is the classic resumable campaign: one process, one
// EvalStore, every cell warm-started from it and checkpointed into it.
// The hi_campaign CLI is a thin argv shim over this function.
//
// run_fleet() is the sharded multi-process fabric.  The parent forks
// `workers` worker processes (fork before any threads exist — workers
// spawn their own lease-renewal thread after the fork).  Layout of the
// shared campaign directory:
//
//   <dir>/shard-<slot>.store    each worker's private append-only store
//   <dir>/claims/               lease files (claims.hpp's protocol)
//   <dir>/worker-<slot>.pid     worker pid, written by the parent right
//                               after fork (tests kill workers via it)
//   <dir>/merged.store          the canonical fold of every shard,
//                               rewritten by the parent after each run
//   <dir>/fleet.json            the FleetReport of the last run
//
// Dispatch: workers claim whole scenario ROWS (all PDRmin cells of one
// scenario), not single cells — the cells of a row share one
// warm-started evaluator, so running them in sequence on one worker is
// what keeps the fleet's total fresh-simulation count equal to a cold
// single-process run.  Each worker first claims its home row (row index
// == slot, if there is one) and then waits at a start barrier until
// every worker has done so (or died), bounded by the lease; only then
// does any row run.  So the first split of rows is one per worker by
// slot, whatever the start order, and the later claims are the
// work-stealing scan.  Before running a claimed row, a worker rescans
// every *other* shard read-only: evaluations are preloaded (a stolen
// row reuses everything its dead owner paid for) and checkpointed
// cells are skipped, so a steal/recovery re-simulates nothing that is
// already durable anywhere in the fabric.  Each completed cell is
// checkpointed into the worker's own shard immediately.
//
// Completion: a worker exits when every row is done; if stealing is
// disabled (--no-steal) it exits as soon as nothing more is claimable.
// The parent reaps workers promptly (so pid-death staleness detection
// works), collects their pipe reports, folds all shards into
// merged.store, audits the plan against the merged store, and writes
// fleet.json.  An incomplete fleet (a killed worker under --no-steal)
// is re-entrant: the same command with --resume recovers the dead
// worker's claims and finishes from the checkpoints.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "obs/metrics.hpp"
#include "store/record_log.hpp"

namespace hi::campaign {

/// Everything beyond the plan a run needs.  store_path drives
/// run_single(); shard_dir/workers/lease/steal drive run_fleet().
struct RunConfig {
  std::string store_path;  ///< single-process store (run_single)
  std::string shard_dir;   ///< fleet campaign directory (run_fleet)
  int workers = 0;         ///< fleet worker count (run_fleet; >= 1)
  int lease_ms = 2000;     ///< claim lease; silent owners expire after it
  bool steal = true;       ///< take over stale claims (--no-steal = false)
  store::FsyncPolicy fsync = store::FsyncPolicy::kCheckpoint;
  bool resume = false;     ///< run_single: skip checkpointed cells
  int cell_delay_ms = 0;   ///< test hook: widen the inter-cell window
  /// Unclean-recovery warnings are printed here (null = silent); the
  /// CLI passes stdout in text mode.
  std::ostream* recovery_warnings = nullptr;
  // --- fault-injection hooks (tests/bench only) ----------------------
  int kill_slot = -1;  ///< worker slot that SIGKILLs itself, -1 = none
  std::uint64_t kill_after_cells = 0;  ///< ...after completing this many
};

/// Runs the whole grid in-process against one store.  `metrics` is
/// nullable and receives dse.* / store.* counters from every cell.
[[nodiscard]] CampaignReport run_single(const CampaignPlan& plan,
                                        const RunConfig& cfg,
                                        obs::MetricsRegistry* metrics);

/// Runs the grid as a forked worker fleet over `cfg.shard_dir`; see the
/// file comment.  Returns after merge + fleet.json.  `metrics` is
/// nullable and receives the parent-side campaign.merge_frames counter
/// (workers record into their own per-process registries and report
/// through pipes).  FleetReport::complete says whether every planned
/// cell is checkpointed in the merged store.
[[nodiscard]] FleetReport run_fleet(const CampaignPlan& plan,
                                    const RunConfig& cfg,
                                    obs::MetricsRegistry* metrics);

// --- campaign-directory layout helpers (shared with tests/bench) -------
[[nodiscard]] std::string shard_path(const std::string& dir, int slot);
[[nodiscard]] std::string merged_path(const std::string& dir);
[[nodiscard]] std::string claims_dir(const std::string& dir);
[[nodiscard]] std::string worker_pid_path(const std::string& dir, int slot);
[[nodiscard]] std::string fleet_json_path(const std::string& dir);
/// Existing shard stores under `dir`, sorted by slot-bearing name.
[[nodiscard]] std::vector<std::string> list_shards(const std::string& dir);

}  // namespace hi::campaign
