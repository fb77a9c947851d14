// hi-opt: hi::campaign — lease-based row claims for the fabric.
//
// The work-stealing dispatcher has no server process: coordination is
// files in `<shard-dir>/claims/`, and every atomic step is an O_EXCL
// create.  Per row token (plan.hpp::row_token) there are two kinds of
// file:
//
//   <token>.g<gen>   a claim at steal-generation `gen`.  Created with
//                    O_CREAT|O_EXCL — exactly one worker wins each
//                    generation.  The *highest* generation present is
//                    the current claim; lower generations are history.
//                    Content (written once): "pid slot run_id gen\n".
//                    The lease is the file's mtime: the owner renews by
//                    futimens(fd, now) — no rewrite, so readers never
//                    see a torn lease.
//   <token>.done     the row completed.  Created with O_EXCL by the
//                    finishing worker; never removed.  Every worker
//                    skips done rows, so a stolen row that *both*
//                    workers finish (the loser was only slow, not dead)
//                    records done exactly once and the loser's extra
//                    checkpoints fold away in the merge.
//
// A claim is STALE when its owner pid is gone (kill(pid,0) == ESRCH —
// the parent reaps children promptly so a SIGKILLed worker turns
// ESRCH fast) or its mtime is older than the lease.  Stealing a stale
// claim = winning the O_EXCL create of generation gen+1; losers see
// EEXIST and move on, so a row is never run twice concurrently.  A
// steal from a claim of the *same* run_id counts as a steal (live
// takeover); a different run_id counts as a recovery (a previous,
// crashed campaign's claim) — the fleet report separates the two.
//
// Correctness does not rest on the lease alone: even if two workers
// ever did run one row (say, a pathological clock), the evaluation
// store's idempotent puts and the merge's duplicate folding keep the
// merged store canonical.  The lease exists to keep the *work* — not
// the data — non-duplicated.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/metrics.hpp"

namespace hi::campaign {

/// Outcome of ClaimBoard::try_claim().
enum class ClaimOutcome {
  kAcquired,   ///< won a fresh (generation-0) claim
  kStolen,     ///< took over a stale claim from this run
  kRecovered,  ///< took over a stale claim from a previous run
  kHeld,       ///< another live worker holds the row (or won the race)
  kDone,       ///< the row is already complete
};

/// Decoded claim-file content + lease state; exposed for tests.
struct ClaimInfo {
  int pid = 0;
  int slot = -1;
  std::uint64_t run_id = 0;
  int gen = 0;
  std::uint64_t age_ms = 0;  ///< now - mtime at read time
};

/// What this board has observed/claimed so far; mirrors the campaign.*
/// counters and rides the worker's pipe report to the parent.
struct ClaimTally {
  std::uint64_t rows_claimed = 0;
  std::uint64_t steals = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t lease_expiries = 0;  ///< stale-by-age (owner pid alive)
};

/// One worker's handle on the claims directory.  Not thread-safe except
/// renew_all(), which may run on a dedicated renewal thread while the
/// owner claims/releases on the worker thread.
class ClaimBoard {
 public:
  /// `dir` is the claims directory (created if absent).  `lease_ms`
  /// bounds how long a silent owner keeps a row.
  ClaimBoard(std::string dir, std::uint64_t run_id, int slot, int lease_ms,
             obs::MetricsRegistry* metrics);
  ~ClaimBoard();

  ClaimBoard(const ClaimBoard&) = delete;
  ClaimBoard& operator=(const ClaimBoard&) = delete;

  /// Attempts to claim `token`; see the file comment for the protocol.
  /// On kAcquired/kStolen/kRecovered the caller owns the row until
  /// release().  `steal_allowed` = false never takes over stale claims
  /// (the --no-steal mode).
  [[nodiscard]] ClaimOutcome try_claim(const std::string& token,
                                       bool steal_allowed);

  /// Renews the lease (mtime) of every claim this board holds.
  void renew_all();

  /// Marks `token` complete (O_EXCL .done marker; losing the race to a
  /// co-finisher is fine) — call before release().
  void mark_done(const std::string& token);

  [[nodiscard]] bool is_done(const std::string& token) const;

  /// Drops ownership (closes the claim fd; the file stays as history).
  void release(const std::string& token);

  /// Reads the current (highest-generation) claim for `token`, if any.
  [[nodiscard]] std::optional<ClaimInfo> read_claim(
      const std::string& token) const;

  [[nodiscard]] const ClaimTally& tally() const { return tally_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  [[nodiscard]] std::string path_of(const std::string& token, int gen) const;
  /// Scans for the highest generation of `token`; -1 when unclaimed.
  [[nodiscard]] int highest_gen(const std::string& token) const;
  /// O_EXCL-creates generation `gen`; returns false on EEXIST (lost).
  [[nodiscard]] bool create_claim(const std::string& token, int gen);

  std::string dir_;
  std::uint64_t run_id_;
  int slot_;
  int lease_ms_;
  obs::MetricsRegistry* metrics_;
  ClaimTally tally_;
  std::mutex held_mu_;              ///< guards held_ (renewal thread)
  std::map<std::string, int> held_; ///< token -> open claim fd
};

}  // namespace hi::campaign
