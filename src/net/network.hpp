// hi-opt: whole-network simulation — the RunSim of Algorithm 1.
//
// Builds one node per topology location (radio + MAC + routing + app),
// wires them through a shared Medium/channel, runs the event kernel for
// Tsim seconds, and evaluates the paper's performance metrics:
// per-node and network PDR (Eqs. 6-7) and per-node power / network
// lifetime (Eq. 4).
//
// One driver (DESIGN.md §15): detail::run_bodies simulates M bodies of
// one configuration on one kernel and one shared medium, and owns node
// construction, the run loop, the per-body metrics and the one counter
// flush.  simulate() is its M = 1 case; hi::crowd is the M > 1 caller.
// Likewise every replicated answer (simulate_averaged,
// crowd::simulate_crowd_averaged, crowd::sweep) seeds its runs with
// detail::replica_seeds and folds them with detail::fold.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "channel/channel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "model/config.hpp"
#include "net/csma.hpp"
#include "net/latency.hpp"
#include "net/medium.hpp"
#include "net/radio.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hi::net {

/// Simulation controls.
struct SimParams {
  double duration_s = 600.0;  ///< Tsim (paper: 600 s)
  double gen_guard_s = 1.0;   ///< stop generating this early so in-flight
                              ///< packets can land before the run ends
  std::uint64_t seed = 1;     ///< randomness root for this run
  /// Root for the channel realization in simulate_averaged.  0 derives it
  /// from `seed`; a nonzero value decouples the fades from the node
  /// randomness, so different configurations evaluated with the same
  /// channel_seed face the *same* fade trajectories — common random
  /// numbers, which sharpens configuration comparisons dramatically at
  /// short Tsim.
  std::uint64_t channel_seed = 0;
  double capture_db = 10.0;   ///< radio capture threshold
  CsmaParams csma{};          ///< CSMA timing (access mode comes from cfg)
  /// Observability (both null by default — the fast path; see DESIGN.md
  /// §8).  `metrics` aggregates the run's per-layer counters (des.*,
  /// net.*) at end of run; atomic, so concurrent hi::exec workers may
  /// share one registry.  `trace` streams per-event records
  /// (packet tx/rx/drop, backoffs, per-node dwell/energy) as they
  /// happen; point it at a RunTrace wrapping a JSON-lines/CSV/memory
  /// sink to watch a single run.
  obs::MetricsRegistry* metrics = nullptr;
  const obs::RunTrace* trace = nullptr;
  /// Collect per-packet end-to-end delays into SimResult::latency (see
  /// net/latency.hpp).  Off by default: the off path adds one branch per
  /// packet, draws no randomness, and leaves the simulated event
  /// sequence untouched, so latency-off results are bit-identical to
  /// builds that predate the metric (pinned by the golden suite).
  bool collect_latency = false;
};

/// Per-node outcome of a run.
struct NodeResult {
  int location = 0;
  double pdr = 0.0;       ///< Eq. (6)
  double power_mw = 0.0;  ///< baseline + measured radio energy / Tsim
  std::uint64_t app_sent = 0;
  RadioStats radio;
  MacStats mac;
  RoutingStats routing;
};

/// Multi-body (crowd) aggregate carried on a SimResult when the result
/// summarizes an hi::crowd run: per-body rows then live in `nodes`
/// (location = body index) and these fields hold the crowd-global
/// coexistence counters.  Inert (present == false, all zero) for every
/// single-body simulation, and serialized only via the store's guarded
/// crowd tail so legacy evaluation records keep their exact bytes.
struct CrowdSummary {
  bool present = false;
  std::int32_t bodies = 0;
  double min_body_pdr = 0.0;     ///< worst body's Eq. (7) PDR
  std::uint64_t cross_offered = 0;
  std::uint64_t cross_below_sensitivity = 0;
  std::uint64_t foreign_heard = 0;
  std::uint64_t foreign_decoded = 0;
};

/// Whole-run outcome.
struct SimResult {
  double pdr = 0.0;              ///< Eq. (7), in [0,1]
  double worst_power_mw = 0.0;   ///< max power among lifetime-relevant nodes
  double mean_power_mw = 0.0;    ///< mean over lifetime-relevant nodes
  double nlt_s = 0.0;            ///< Eq. (4)
  double duration_s = 0.0;
  std::vector<NodeResult> nodes;
  MediumStats medium;
  std::uint64_t events = 0;      ///< kernel events executed
  /// End-to-end delay summary; all-zero with collected == false unless
  /// SimParams::collect_latency was set.
  LatencySummary latency;
  /// Crowd aggregate (hi::crowd runs only; see CrowdSummary).
  CrowdSummary crowd;
};

/// Runs one simulation of `cfg` over the given instantaneous channel.
///
/// Concurrency contract (audited for hi::exec): `cfg` and `params` are
/// read-only, every piece of mutable state (kernel, medium, nodes, RNG
/// streams) is local to the call, and the channel tables in hi::channel
/// are immutable after their thread-safe magic-static initialization —
/// so concurrent simulate() calls are safe provided each caller passes
/// its *own* ChannelModel instance (the model carries per-link fading
/// state and is mutated during the run).
[[nodiscard]] SimResult simulate(const model::NetworkConfig& cfg,
                                 channel::ChannelModel& channel,
                                 const SimParams& params);

/// Produces a fresh channel for a run; receives the run's seed.
/// When an Evaluator is used through dse::RobustBatch with threads > 0,
/// the factory is invoked concurrently from worker threads: a replacement
/// factory must tolerate that (be stateless or internally synchronized).
/// The default factory is stateless.
using ChannelFactory =
    std::function<std::unique_ptr<channel::ChannelModel>(std::uint64_t seed)>;

/// The default body channel (synthetic matrix + Gauss-Markov fading).
[[nodiscard]] ChannelFactory default_channel_factory();

/// Runs `runs` independent replications (fresh channel + fresh seeds,
/// derived from params.seed) and averages PDR and power; the returned
/// SimResult carries the averaged metrics and the *first* run's detailed
/// node stats.  `pdr_spread`/`power_spread` (optional) receive the
/// per-run sample statistics for error reporting.  Safe to call
/// concurrently for different design points (see simulate) as long as
/// `make_channel` honours the ChannelFactory concurrency note and the
/// spread accumulators, when given, are per-caller.
[[nodiscard]] SimResult simulate_averaged(
    const model::NetworkConfig& cfg, const SimParams& params, int runs,
    const ChannelFactory& make_channel = default_channel_factory(),
    RunningStats* pdr_spread = nullptr, RunningStats* power_spread = nullptr);

namespace detail {

/// Outcome of one run_bodies call.
struct BodiesResult {
  /// One result per body, in lane order: node rows and the Eqs. (4),
  /// (6), (7) metrics of that body alone; `medium` / `events` stay zero
  /// (they are shared, see below).
  std::vector<SimResult> bodies;
  MediumStats medium;          ///< the shared medium
  std::uint64_t events = 0;    ///< the one kernel
  RadioCrowdStats crowd;       ///< summed over every radio of every body
};

/// The one simulation driver: `lanes.size()` bodies of `cfg` on one
/// kernel and one medium over `channel`.  Body b draws its node
/// randomness from `lanes[b]`, carries net id b, and its node at
/// location `loc` is channel id b * kNumLocations + loc, so one lane
/// {Rng(params.seed)} is exactly simulate().  Flushes the run's
/// counters once into params.metrics: the full des.* / net.* set summed
/// over all bodies, plus the net.crowd_* ledger only when there is more
/// than one body.  Same concurrency contract as simulate().
[[nodiscard]] BodiesResult run_bodies(const model::NetworkConfig& cfg,
                                      channel::ChannelModel& channel,
                                      const SimParams& params,
                                      const std::vector<Rng>& lanes);

/// Seeds of replication r: the node-randomness root and the channel
/// seed one replication runs under.
struct ReplicaSeeds {
  SimParams params;                ///< the caller's, seed = fork r of seed
  std::uint64_t channel_seed = 0;  ///< root of the run's fresh channel
};

/// The one place replication seeds are derived: seed fork r of
/// params.seed, and channel seed fork r of params.channel_seed (or
/// params.seed when 0) whitened by a fixed xor.  Depends on (params, r)
/// alone, so replications may run in any order on any thread.
[[nodiscard]] ReplicaSeeds replica_seeds(const SimParams& params, int r);

/// The one fold over replications, `results` in run order (at least
/// one): the first run's SimResult with PDR and powers averaged
/// (lifetime from the averaged worst power and `battery_j`), events
/// summed, latency averaged when the runs collected it, and the crowd
/// ledger (min body PDR averaged, counters summed) when present.
/// `pdr_spread` / `power_spread` as in simulate_averaged.
[[nodiscard]] SimResult fold(std::vector<SimResult> results, double battery_j,
                             RunningStats* pdr_spread = nullptr,
                             RunningStats* power_spread = nullptr);

/// One replication: simulate under `run_params` (seed already forked)
/// over a fresh channel built from `channel_seed`.
using Replica = std::function<SimResult(const SimParams& run_params,
                                        std::uint64_t channel_seed)>;

/// `runs` serial calls of `run` under replica_seeds(params, r), then
/// fold: the loop behind simulate_averaged and
/// crowd::simulate_crowd_averaged.
[[nodiscard]] SimResult replicate(const SimParams& params, int runs,
                                  double battery_j, const Replica& run,
                                  RunningStats* pdr_spread = nullptr,
                                  RunningStats* power_spread = nullptr);

}  // namespace detail

}  // namespace hi::net
