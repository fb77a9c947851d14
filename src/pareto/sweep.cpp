#include "pareto/sweep.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "dse/level_walk.hpp"

namespace hi::pareto {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Validates, sorts ascending and deduplicates the PDRmin ladder.
std::vector<double> canonical_ladder(const std::vector<double>& ladder) {
  HI_REQUIRE(!ladder.empty(), "pareto sweep: empty PDRmin ladder");
  std::vector<double> rungs = ladder;
  for (double r : rungs) {
    HI_REQUIRE(r >= 0.0 && r <= 1.0,
               "pareto sweep: PDRmin rung " << r << " outside [0, 1]");
  }
  std::sort(rungs.begin(), rungs.end());
  rungs.erase(std::unique(rungs.begin(), rungs.end()), rungs.end());
  return rungs;
}

void offer(RungResult& rung, const FrontPoint& p) {
  if (p.pdr >= rung.pdr_min && (!rung.feasible || lex_before(p, rung.best))) {
    rung.feasible = true;
    rung.best = p;
  }
}

/// Per-sweep harness (mirrors dse::detail::RunScope): installs the
/// sweep's registry on the evaluator for the call's duration.
class SweepScope {
 public:
  SweepScope(dse::Evaluator& eval, obs::MetricsRegistry* m)
      : eval_(eval), metrics_(m), t0_s_(steady_now_s()) {
    if (metrics_ != nullptr) prev_ = eval_.set_metrics(metrics_);
    sims0_ = eval_.total_simulations();
    store0_ = eval_.total_store_hits();
  }
  ~SweepScope() {
    if (metrics_ != nullptr) eval_.set_metrics(prev_);
  }
  SweepScope(const SweepScope&) = delete;
  SweepScope& operator=(const SweepScope&) = delete;

  void finish(SweepResult& res, const FrontBuilder& fb) const {
    res.simulations = eval_.total_simulations() - sims0_;
    res.store_hits = eval_.total_store_hits() - store0_;
    res.wall_time_s = steady_now_s() - t0_s_;
    if (metrics_ == nullptr) return;
    metrics_->counter("pareto.points_offered").add(fb.offered());
    metrics_->counter("pareto.dominated_dropped").add(fb.dominated_dropped());
    metrics_->counter("pareto.displaced").add(fb.displaced());
    metrics_->gauge("pareto.front_size")
        .set(static_cast<double>(res.front.size()));
    metrics_->counter("pareto.sweeps").add(1);
  }

 private:
  dse::Evaluator& eval_;
  obs::MetricsRegistry* metrics_;
  obs::MetricsRegistry* prev_ = nullptr;
  double t0_s_;
  std::uint64_t sims0_ = 0;
  std::uint64_t store0_ = 0;
};

}  // namespace

SweepResult exhaustive_front(const model::Scenario& scenario,
                             dse::Evaluator& eval, const SweepOptions& opt) {
  const std::vector<double> rungs = canonical_ladder(opt.pdr_ladder);
  SweepScope scope(eval, opt.metrics);

  const std::vector<model::NetworkConfig> cfgs = scenario.feasible_configs();
  const std::vector<dse::RobustEvaluation> revs =
      dse::RobustBatch(eval, opt.threads, opt.robust).evaluate(cfgs);
  std::vector<FrontPoint> points;
  points.reserve(cfgs.size());
  FrontBuilder fb(opt.front);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    points.push_back(make_point(cfgs[i], revs[i]));
    fb.insert(points.back());
  }
  SweepResult res;
  res.front = fb.front();
  // Per-rung optima fall out of the same evaluations: the lex_before
  // minimum among points meeting the rung.
  for (double pdr_min : rungs) {
    RungResult rr{pdr_min};
    for (const FrontPoint& p : points) {
      offer(rr, p);
    }
    res.rungs.push_back(rr);
  }
  res.evaluated = points.size();
  scope.finish(res, fb);
  if (opt.progress) {
    opt.progress(1);
  }
  return res;
}

SweepResult ladder_front(const model::Scenario& scenario, dse::Evaluator& eval,
                         const SweepOptions& opt) {
  const std::vector<double> rung_bounds = canonical_ladder(opt.pdr_ladder);
  SweepScope scope(eval, opt.metrics);
  // The floor table covers every rung's PDRmin (see dse/level_walk.hpp).
  dse::LevelWalk walk(scenario, eval, opt.threads, opt.robust, rung_bounds);

  SweepResult res;
  for (double pdr_min : rung_bounds) {
    res.rungs.push_back(RungResult{pdr_min});
  }
  std::vector<bool> open(rung_bounds.size(), true);

  dse::LevelWalk::Rules rules;
  // Close every rung whose certificate holds at this level: all cells at
  // or above it — including the one just proposed — have their measured
  // floor above the rung's incumbent, so no remaining simulation can win
  // (nor tie: the bound is strict).  Stop once every front point is
  // certified without touching this level.
  rules.stop_before_sim = [&](const dse::MilpRound& round) {
    ++res.milp_rounds;
    res.milp_bnb_nodes += round.bnb_nodes;
    bool any_open = false;
    for (std::size_t ri = 0; ri < open.size(); ++ri) {
      if (!open[ri]) continue;
      const RungResult& r = res.rungs[ri];
      if (r.feasible &&
          walk.floor_from(round.power_mw, ri) > r.best.power_mw) {
        open[ri] = false;
        if (opt.metrics != nullptr) {
          opt.metrics->counter("pareto.rungs_closed_by_floor").add(1);
        }
        continue;
      }
      any_open = true;
    }
    return !any_open;
  };
  rules.stop_after_sim = [&](const dse::MilpRound& round,
                             const std::vector<dse::RobustEvaluation>& revs) {
    res.evaluated += revs.size();
    for (std::size_t i = 0; i < revs.size(); ++i) {
      const FrontPoint p = make_point(round.candidates[i], revs[i]);
      for (std::size_t ri = 0; ri < open.size(); ++ri) {
        if (open[ri]) offer(res.rungs[ri], p);
      }
    }
    return false;
  };
  rules.after_cut = [&](int levels) {
    if (opt.metrics != nullptr) {
      opt.metrics->counter("pareto.cuts_added").add(1);
    }
    if (opt.progress) {
      opt.progress(levels);
    }
  };
  // A walk that ends inside its budget has certified every rung: the
  // MILP ran dry (every incumbent is final, rungs without one are
  // genuinely infeasible) or every rung closed.
  res.complete =
      walk.run(opt.milp, opt.max_rounds, opt.metrics, nullptr, rules) <
      opt.max_rounds;

  FrontBuilder fb(opt.front);
  for (const RungResult& r : res.rungs) {
    if (r.feasible) fb.insert(r.best);
  }
  res.front = fb.front();
  if (opt.metrics != nullptr) {
    opt.metrics->counter("pareto.milp_rounds").add(res.milp_rounds);
  }
  scope.finish(res, fb);
  return res;
}

}  // namespace hi::pareto
