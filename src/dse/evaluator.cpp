#include "dse/evaluator.hpp"

#include "common/assert.hpp"

namespace hi::dse {

std::uint64_t realization_channel_seed(std::uint64_t channel_root, int k) {
  HI_REQUIRE(k >= 1, "realization index must be >= 1, got " << k);
  const std::uint64_t seed = Rng{channel_root}
                                 .fork("dse.realization")
                                 .fork(static_cast<std::uint64_t>(k))
                                 .next_u64();
  // 0 means "unset" to SimParams (simulate_uncached would substitute the
  // node seed); substitute the splitmix64 increment instead.
  return seed != 0 ? seed : 0x9E3779B97F4A7C15ULL;
}

Evaluator::Evaluator(EvaluatorSettings settings)
    : settings_(std::move(settings)) {
  HI_REQUIRE(settings_.runs >= 1, "need at least one replication");
  HI_REQUIRE(settings_.channel != nullptr, "channel factory required");
  set_metrics(settings_.metrics);
}

void Evaluator::reset_counters() {
  simulations_ = 0;
  cache_hits_ = 0;
  store_hits_ = 0;
  counted_this_epoch_.clear();
  for (const std::unique_ptr<Evaluator>& child : children_) {
    child->reset_counters();
  }
}

Evaluator& Evaluator::realization(int k) {
  HI_REQUIRE(k >= 0, "realization index must be >= 0, got " << k);
  if (k == 0) {
    return *this;
  }
  const std::uint64_t root = settings_.sim.channel_seed != 0
                                 ? settings_.sim.channel_seed
                                 : settings_.sim.seed;
  while (static_cast<int>(children_.size()) < k) {
    EvaluatorSettings child = settings_;
    child.sim.channel_seed = realization_channel_seed(
        root, static_cast<int>(children_.size()) + 1);
    child.metrics = metrics_;  // follow the currently installed registry
    children_.push_back(std::make_unique<Evaluator>(std::move(child)));
  }
  return *children_[static_cast<std::size_t>(k) - 1];
}

std::uint64_t Evaluator::total_simulations() const {
  std::uint64_t total = simulations_;
  for (const std::unique_ptr<Evaluator>& child : children_) {
    total += child->total_simulations();
  }
  return total;
}

std::uint64_t Evaluator::total_store_hits() const {
  std::uint64_t total = store_hits_;
  for (const std::unique_ptr<Evaluator>& child : children_) {
    total += child->total_store_hits();
  }
  return total;
}

}  // namespace hi::dse
