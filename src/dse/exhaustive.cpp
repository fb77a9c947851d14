// hi-opt: exhaustive-search baseline.
//
// Simulates every configuration satisfying the topological and
// configuration constraints and returns the minimum-power one meeting
// the reliability bound.  This is the ground truth Algorithm 1 is
// compared against ("87% reduction in the number of required
// simulations") and also the generator of Fig. 3's full scatter.
//
// Every explorer evaluates through RobustBatch: robust runs judge
// feasibility on the worst of K realizations and rank by worst-case power
// + Γ-protection (the ground truth the robust Algorithm 1 property
// checks against); a nominal run is the K = 1, Γ = 0 fold.
//
// Entry point: run_exhaustive(scenario, eval, ExplorationOptions),
// declared in dse/explorer.hpp (or Explorer::exhaustive().run(...)).
#include <algorithm>

#include "dse/explorer.hpp"
#include "dse/robustness.hpp"

namespace hi::dse {

ExplorationResult run_exhaustive(const model::Scenario& scenario,
                                 Evaluator& eval,
                                 const ExplorationOptions& opt) {
  detail::RunScope scope(ExplorerKind::kExhaustive, eval, opt);

  const std::vector<model::NetworkConfig> space = scenario.feasible_configs();
  RobustBatch batch(eval, opt.threads, opt.robust);
  // Sweep the design space in chunks: wide enough to keep every worker
  // busy, small enough to bound the in-flight result memory.  Chunking
  // cannot change any outcome — results are committed in request order
  // either way (see dse::RobustBatch).
  const std::size_t chunk =
      opt.threads > 0
          ? std::max<std::size_t>(8 * static_cast<std::size_t>(opt.threads),
                                  32)
          : space.size();

  ExplorationResult res;
  for (std::size_t begin = 0; begin < space.size(); begin += chunk) {
    const std::size_t end = std::min(space.size(), begin + chunk);
    const std::vector<model::NetworkConfig> slice(
        space.begin() + static_cast<std::ptrdiff_t>(begin),
        space.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<RobustEvaluation> revs = batch.evaluate(slice);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      detail::offer(res, slice[i], revs[i], opt.pdr_min);
    }
    res.iterations = static_cast<int>(end);
    scope.progress(res.iterations, res);  // one heartbeat per chunk
  }

  scope.finish(res);
  return res;
}

}  // namespace hi::dse
