#include "dse/explorer.hpp"

#include <chrono>

#include "common/assert.hpp"

namespace hi::dse {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(ExplorerKind kind) {
  switch (kind) {
    case ExplorerKind::kAlgorithm1:
      return "algorithm1";
    case ExplorerKind::kExhaustive:
      return "exhaustive";
    case ExplorerKind::kAnnealing:
      return "annealing";
    case ExplorerKind::kFastIlp:
      return "fast_ilp";
  }
  return "unknown";
}

ExplorationResult Explorer::run(const model::Scenario& scenario,
                                Evaluator& eval,
                                const ExplorationOptions& opt) const {
  switch (kind_) {
    case ExplorerKind::kAlgorithm1:
      return run_algorithm1(scenario, eval, opt);
    case ExplorerKind::kExhaustive:
      return run_exhaustive(scenario, eval, opt);
    case ExplorerKind::kAnnealing:
      return run_annealing(scenario, eval, opt);
    case ExplorerKind::kFastIlp:
      return run_fast_ilp(scenario, eval, opt);
  }
  HI_ASSERT_MSG(false, "unknown ExplorerKind "
                           << static_cast<int>(kind_));
  return {};  // unreachable; assert_fail is [[noreturn]]
}

namespace detail {

RunScope::RunScope(ExplorerKind kind, Evaluator& eval,
                   const ExplorationOptions& opt)
    : kind_(kind), eval_(eval), opt_(opt) {
  HI_REQUIRE(opt.pdr_min >= 0.0 && opt.pdr_min <= 1.0,
             "pdr_min must be in [0,1], got " << opt.pdr_min);
  HI_REQUIRE(opt.threads >= 0,
             "threads must be >= 0 (0 = serial), got " << opt.threads);

  registry_ = opt.metrics != nullptr ? opt.metrics : eval.metrics();
  if (registry_ == nullptr) {
    // No registry anywhere: the run still measures itself so the result
    // snapshot is always populated (the paper's headline numbers ride
    // on it), just into a private registry nobody else sees.
    owned_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_.get();
  }
  if (registry_ != eval.metrics()) {
    previous_ = eval.set_metrics(registry_);
    installed_ = true;
  }
  start_ = registry_->snapshot();
  // total_simulations: a robust run pays into the realization children
  // too; with no children this is exactly simulations(), so the
  // single-realization accounting is unchanged.
  sims0_ = eval.total_simulations();
  t0_s_ = steady_now_s();
}

RunScope::~RunScope() {
  if (installed_) {
    eval_.set_metrics(previous_);
  }
}

void RunScope::progress(int iteration, const ExplorationResult& res) const {
  if (!opt_.progress) {
    return;
  }
  ProgressInfo info;
  info.kind = kind_;
  info.iteration = iteration;
  info.simulations = eval_.total_simulations() - sims0_;
  info.feasible = res.feasible;
  info.best_power_mw = res.best_power_mw;
  opt_.progress(info);
}

void RunScope::finish(ExplorationResult& res) {
  res.simulations = eval_.total_simulations() - sims0_;
  res.realizations = opt_.robust.active() ? opt_.robust.realizations : 1;
  res.gamma = opt_.robust.active() ? opt_.robust.gamma : 0;
  res.wall_time_s = steady_now_s() - t0_s_;
  registry_->histogram("dse.run_s").observe(res.wall_time_s);
  registry_->counter("dse.runs").add(1);
  res.metrics = registry_->snapshot().delta_since(start_);
  res.milp_bnb_nodes = res.metrics.counter("milp.bnb_nodes");
  HI_ASSERT_MSG(res.metrics.counter("dse.simulations") == res.simulations,
                "metric dse.simulations ("
                    << res.metrics.counter("dse.simulations")
                    << ") disagrees with the evaluator's count ("
                    << res.simulations << ")");
}

void set_incumbent(ExplorationResult& res, const model::NetworkConfig& cfg,
                   const RobustEvaluation& rev) {
  res.feasible = true;
  res.best = cfg;
  res.best_power_mw = rev.robust_power_mw;
  res.best_pdr = rev.worst_pdr;
  res.best_nlt_s = rev.worst_nlt_s;
  res.best_pdr_lo = rev.pdr_lo;
  res.best_pdr_hi = rev.pdr_hi;
  res.best_protection_mw = rev.protection_mw;
}

bool offer(ExplorationResult& res, const model::NetworkConfig& cfg,
           const RobustEvaluation& rev, double pdr_min) {
  res.history.push_back(robust_record(cfg, rev));
  const bool better =
      rev.worst_pdr >= pdr_min &&
      (!res.feasible || rev.robust_power_mw < res.best_power_mw);
  if (better) {
    set_incumbent(res, cfg, rev);
  }
  return better;
}

}  // namespace detail

}  // namespace hi::dse
