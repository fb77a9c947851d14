// hi-opt: simulation-based evaluator — the RunSim of Algorithm 1.
//
// Wraps net::simulate_averaged with a design-point cache and counters.
// The paper's efficiency metric is the number of simulations an explorer
// needs (87% fewer than exhaustive search); the Evaluator is the single
// place that number is counted, so Algorithm 1, exhaustive search, and
// simulated annealing are measured identically.  A cached re-evaluation
// (e.g. simulated annealing revisiting a state) is not a new simulation.
//
// Concurrency: the Evaluator itself is NOT thread-safe — all cache and
// counter updates go through the single-threaded admit() path.  Parallel
// evaluation is layered on top by dse::RobustBatch (dse/robustness.hpp),
// which fans the pure simulate_uncached() out across workers and then
// replays admit() serially in request order, making parallel results
// (metrics, incumbents, and both counters) bit-identical to a serial
// run.  That works because a design point's randomness is seeded from
// its design_key() and all design points share one channel-realization
// root (common random numbers): what a simulation returns never depends
// on which thread ran it or when.
//
// Durability is layered on top the same way (hi::store, DESIGN.md §10):
// preload() seeds the cache with results a previous process already
// paid for, and a store sink observes every fresh simulation for
// write-through.  Store-served design points are counted in
// store_hits() / `dse.store_hits`, never in simulations(), so a
// store-warmed run reports simulations == (cold total − store hits)
// while everything else — optima, history, cache_hits — stays
// bit-identical to a cold run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "model/config.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hi::dse {

/// Channel-realization seed of realization `k >= 1`, derived from the
/// experiment's channel root (`sim.channel_seed`, falling back to
/// `sim.seed` when unset — the same fallback simulate_uncached applies).
/// Realization 0 *is* the root: the nominal channel every pre-robust
/// run already used.  The derivation is nested — realization k's seed
/// does not depend on how many realizations exist — so growing K only
/// ever *adds* channel draws, which is what makes the robust optimum
/// monotone in K and lets a K=4 sweep reuse every K=2 store record.
/// Forced nonzero so it can never alias the "unset, use sim.seed" case.
[[nodiscard]] std::uint64_t realization_channel_seed(
    std::uint64_t channel_root, int k);

/// Outcome of evaluating one design point.
struct Evaluation {
  double pdr = 0.0;        ///< simulated network PDR, Eq. (7), in [0,1]
  double power_mw = 0.0;   ///< simulated worst lifetime-relevant node power
  double nlt_s = 0.0;      ///< simulated network lifetime, Eq. (4)
  net::SimResult detail;   ///< averaged run detail
};

/// Evaluation settings shared by all explorers in one experiment.
struct EvaluatorSettings {
  net::SimParams sim{};  ///< Tsim etc.; seed is the experiment's root seed
  int runs = 3;          ///< replications averaged per design point
  net::ChannelFactory channel = net::default_channel_factory();
  /// Observability registry (null = not observed).  The evaluator
  /// records `dse.simulations` / `dse.cache_hits` counters — mirroring
  /// simulations()/cache_hits() exactly — the `dse.simulate_s` timing
  /// histogram, and forwards the registry into every simulation run
  /// (net.* / des.* counters).  Explorers install their own registry for
  /// the duration of a run when ExplorationOptions::metrics is set; see
  /// Evaluator::set_metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// See file comment.
class Evaluator {
 public:
  explicit Evaluator(EvaluatorSettings settings);

  /// Simulates (or returns the cached result for) one design point.
  ///
  /// Reference stability: the returned reference stays valid for the
  /// whole lifetime of the Evaluator, across any number of subsequent
  /// evaluate() calls.  Callers depend on this — simulated annealing
  /// holds the current state's Evaluation while evaluating neighbours,
  /// and RobustBatch folds pointers into the cache — and it is only
  /// safe because std::unordered_map is node-based: rehashing reseats
  /// buckets but never moves or invalidates elements
  /// ([unord.req.general]).  Do not swap the cache for an
  /// open-addressing map without removing that guarantee everywhere.
  const Evaluation& evaluate(const model::NetworkConfig& cfg) {
    return admit(cfg, nullptr);
  }

  /// Runs the simulation for `cfg` without touching the cache or the
  /// counters.  Pure: the result depends only on the settings and on
  /// cfg.design_key(), so concurrent calls from worker threads are safe
  /// as long as settings().channel tolerates concurrent invocation (the
  /// default factory is stateless; see net::ChannelFactory).
  [[nodiscard]] Evaluation simulate_uncached(
      const model::NetworkConfig& cfg) const {
    // Derive the design point's node-randomness seed from the experiment
    // root so results do not depend on evaluation order, but keep one
    // shared channel-realization root: every configuration is judged
    // against the same fades (common random numbers).
    net::SimParams sp = settings_.sim;
    sp.seed = Rng{settings_.sim.seed}.fork(cfg.design_key()).next_u64();
    sp.channel_seed = settings_.sim.channel_seed != 0
                          ? settings_.sim.channel_seed
                          : settings_.sim.seed;
    // Stack counters (net.* / des.*) flow into the active registry; the
    // registry is atomic, so concurrent workers recording is safe and
    // the sums are thread-count-independent.
    sp.metrics = metrics_;
    obs::ScopedTimer timer(metrics_, "dse.simulate_s");
    Evaluation ev;
    ev.detail = net::simulate_averaged(cfg, sp, settings_.runs,
                                       settings_.channel);
    ev.pdr = ev.detail.pdr;
    ev.power_mw = ev.detail.worst_power_mw;
    ev.nlt_s = ev.detail.nlt_s;
    return ev;
  }

  /// True when the design point's result is already cached.
  [[nodiscard]] bool cached(const model::NetworkConfig& cfg) const {
    return cache_.contains(cfg.design_key());
  }

  /// The serial bookkeeping step shared by evaluate() and the batch
  /// engine: counts the request, serves a cache hit (after verifying the
  /// stored canonical config, so a 64-bit design_key() collision fails
  /// loudly instead of silently aliasing two design points), and on a
  /// miss inserts `*precomputed` if non-null — else simulates in place.
  /// RobustBatch calls this in the caller's request order after its
  /// parallel compute phase; that replay is what makes the parallel
  /// counters bit-identical to serial.
  ///
  /// Store accounting: the first serve of a preload()ed entry is the
  /// moment a cold run would have simulated, so it counts as a store
  /// hit instead of a simulation *and* instead of a cache hit; the
  /// entry then sheds its preloaded mark and behaves exactly like a
  /// simulated one (including the once-per-epoch re-count on later
  /// epochs).  With no preloads this path is bit-identical to the
  /// pre-store behaviour.
  const Evaluation& admit(const model::NetworkConfig& cfg,
                          const Evaluation* precomputed) {
    const std::uint64_t key = cfg.design_key();
    const auto it = cache_.find(key);
    const bool store_serve = it != cache_.end() && it->second.preloaded;
    if (counted_this_epoch_.insert(key).second) {
      if (store_serve) {
        ++store_hits_;
        if (store_hits_counter_ != nullptr) {
          store_hits_counter_->add(1);
        }
      } else {
        ++simulations_;
        if (sims_counter_ != nullptr) {
          sims_counter_->add(1);  // the paper's headline count, mirrored
        }
      }
    }
    if (it != cache_.end()) {
      HI_REQUIRE(it->second.cfg == cfg,
                 "design_key collision: key " << key << " maps both "
                     << it->second.cfg.label() << " and " << cfg.label()
                     << "; the cached result would be wrong for one of "
                        "them — widen design_key()");
      it->second.preloaded = false;
      if (!store_serve) {
        ++cache_hits_;
        if (cache_hits_counter_ != nullptr) {
          cache_hits_counter_->add(1);
        }
      }
      return it->second.ev;
    }
    CacheEntry entry{cfg, precomputed != nullptr ? *precomputed
                                                 : simulate_uncached(cfg)};
    const Evaluation& ev = cache_.emplace(key, std::move(entry)).first->second.ev;
    if (store_sink_) {
      store_sink_(cfg, ev);  // write-through: a fresh simulation landed
    }
    return ev;
  }

  /// Number of *distinct* design points requested since construction or
  /// the last reset_counters().  A design point served from the cache
  /// still counts once per counting epoch: an explorer's cost is the
  /// set of simulations it *needs*, regardless of whether a previous
  /// experiment already paid for them.  Repeat requests within the same
  /// epoch (e.g. simulated annealing revisiting a state) stay free.
  [[nodiscard]] std::uint64_t simulations() const { return simulations_; }

  /// Number of cache hits served (across epochs).
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }

  /// Number of distinct design points served from preloaded (store-
  /// origin) results this epoch — the simulations a previous process
  /// already paid for.  simulations() + store_hits() of a warmed run
  /// equals simulations() of the equivalent cold run.
  [[nodiscard]] std::uint64_t store_hits() const { return store_hits_; }

  /// Starts a new counting epoch (the result cache is kept).  Also
  /// resets every realization sub-evaluator (see realization()).
  void reset_counters();

  /// The evaluator for channel realization `k` of a multi-realization
  /// (robust) experiment.  k == 0 returns *this* — the nominal channel,
  /// bit-identical to every pre-robust code path.  k >= 1 lazily
  /// constructs a child Evaluator with identical settings except for
  /// the channel root, which is re-derived via realization_channel_seed
  /// so the K realizations judge every design point against K
  /// independent fade draws.  Children share this evaluator's metrics
  /// registry (kept in sync by set_metrics) but own their caches, so
  /// hi::store sees one record per (design, realization seed) — the
  /// per-realization settings fingerprints differ only in channel_seed.
  /// References stay valid for the evaluator's lifetime.  Not
  /// thread-safe (same rule as the rest of the class).
  Evaluator& realization(int k);

  /// 1 + the number of realization children created so far.
  [[nodiscard]] int realization_count() const {
    return 1 + static_cast<int>(children_.size());
  }

  /// simulations() summed over this evaluator and its realization
  /// children — the robust analogue of the paper's headline count (a
  /// K-realization design-point evaluation pays up to K simulations).
  /// Equals simulations() exactly when no children exist.
  [[nodiscard]] std::uint64_t total_simulations() const;

  /// store_hits() summed over this evaluator and its children.
  [[nodiscard]] std::uint64_t total_store_hits() const;

  /// Seeds the cache with a result a previous process computed under
  /// *identical* settings (hi::store enforces that via the settings
  /// fingerprint; callers bypassing the store carry the proof burden —
  /// a wrong preload silently corrupts every downstream result).
  /// Returns false (and keeps the existing entry, preserving reference
  /// stability) when the design point is already cached.  A design_key
  /// collision with a different cached config fails loudly, as in
  /// admit().  Must not be called while a batch evaluation is in
  /// flight.
  bool preload(const model::NetworkConfig& cfg, const Evaluation& ev) {
    const std::uint64_t key = cfg.design_key();
    if (const auto it = cache_.find(key); it != cache_.end()) {
      HI_REQUIRE(it->second.cfg == cfg,
                 "design_key collision on preload: key "
                     << key << " maps both " << it->second.cfg.label()
                     << " and " << cfg.label());
      return false;
    }
    cache_.emplace(key, CacheEntry{cfg, ev, /*preloaded=*/true});
    return true;
  }

  /// Write-through observer: invoked from admit() — always serially,
  /// batch commits included — once per freshly simulated design point,
  /// after the result is cached.  Preloaded and cache-served points are
  /// not re-announced.  Null clears it.
  using StoreSink =
      std::function<void(const model::NetworkConfig&, const Evaluation&)>;
  void set_store_sink(StoreSink sink) { store_sink_ = std::move(sink); }

  [[nodiscard]] const EvaluatorSettings& settings() const { return settings_; }

  /// The active observability registry (may be null).
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Swaps the active registry (null detaches) and returns the previous
  /// one.  Explorers install a per-run registry through this and restore
  /// the old one afterwards.  Realization children follow along, so one
  /// install covers the whole robust evaluator tree.  Must not be called
  /// while a batch evaluation is in flight (same rule as using the
  /// evaluator directly; see dse::RobustBatch).
  obs::MetricsRegistry* set_metrics(obs::MetricsRegistry* m) {
    obs::MetricsRegistry* prev = metrics_;
    metrics_ = m;
    sims_counter_ = m != nullptr ? &m->counter("dse.simulations") : nullptr;
    cache_hits_counter_ =
        m != nullptr ? &m->counter("dse.cache_hits") : nullptr;
    store_hits_counter_ =
        m != nullptr ? &m->counter("dse.store_hits") : nullptr;
    for (const std::unique_ptr<Evaluator>& child : children_) {
      child->set_metrics(m);
    }
    return prev;
  }

 private:
  /// The canonical config rides along with each result so admit() can
  /// prove a hit really is the same design point (collision guard).
  /// `preloaded` marks store-origin entries until their first serve
  /// (see admit()'s store-accounting note).
  struct CacheEntry {
    model::NetworkConfig cfg;
    Evaluation ev;
    bool preloaded = false;
  };

  EvaluatorSettings settings_;
  /// Realization sub-evaluators (index i holds realization i + 1);
  /// unique_ptr keeps cache references stable across vector growth.
  std::vector<std::unique_ptr<Evaluator>> children_;
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::unordered_set<std::uint64_t> counted_this_epoch_;
  std::uint64_t simulations_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t store_hits_ = 0;
  StoreSink store_sink_;
  /// Active registry + cached instrument pointers (admit() is hot).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* sims_counter_ = nullptr;
  obs::Counter* cache_hits_counter_ = nullptr;
  obs::Counter* store_hits_counter_ = nullptr;
};

}  // namespace hi::dse
