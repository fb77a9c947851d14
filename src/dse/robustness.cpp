#include "dse/robustness.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>
#include <unordered_map>

#include "common/assert.hpp"
#include "model/power.hpp"
#include "obs/timer.hpp"

namespace hi::dse {

namespace {

void require_valid(const RobustnessOptions& robust) {
  HI_REQUIRE(robust.gamma >= 0,
             "gamma must be >= 0, got " << robust.gamma);
  HI_REQUIRE(robust.realizations >= 1,
             "realizations must be >= 1, got " << robust.realizations);
  HI_REQUIRE(robust.confidence > 0.0 && robust.confidence < 1.0,
             "confidence must lie in (0, 1), got " << robust.confidence);
}

}  // namespace

double robust_z_value(double confidence) {
  HI_REQUIRE(confidence > 0.0 && confidence < 1.0,
             "confidence must lie in (0, 1), got " << confidence);
  // Acklam's inverse-normal rational approximation, evaluated at the
  // two-sided upper quantile p = (1 + confidence) / 2 in (0.5, 1).
  const double p = 0.5 + confidence / 2.0;
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kPHigh = 1.0 - 0.02425;
  if (p <= kPHigh) {  // central region
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));  // upper tail
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

RobustEvaluation aggregate_robust(
    const model::NetworkConfig& cfg,
    const std::vector<const Evaluation*>& per_realization,
    const RobustnessOptions& robust) {
  require_valid(robust);
  const int k_count = static_cast<int>(per_realization.size());
  HI_REQUIRE(k_count == robust.realizations,
             "aggregate_robust: got " << k_count << " realizations, expected "
                                      << robust.realizations);
  RobustEvaluation out;
  out.nominal = *per_realization[0];
  out.realizations = k_count;
  out.worst_pdr = out.nominal.pdr;
  out.worst_power_mw = out.nominal.power_mw;
  out.worst_nlt_s = out.nominal.nlt_s;
  out.worst_p95_s = out.nominal.detail.latency.p95_s;
  double sum = 0.0;
  for (const Evaluation* ev : per_realization) {
    HI_REQUIRE(ev != nullptr, "aggregate_robust: null realization result");
    out.worst_pdr = std::min(out.worst_pdr, ev->pdr);
    out.worst_power_mw = std::max(out.worst_power_mw, ev->power_mw);
    out.worst_nlt_s = std::min(out.worst_nlt_s, ev->nlt_s);
    out.worst_p95_s = std::max(out.worst_p95_s, ev->detail.latency.p95_s);
    sum += ev->pdr;
  }
  out.mean_pdr = k_count == 1 ? out.nominal.pdr : sum / k_count;
  if (k_count >= 2) {
    // Two-pass sample variance: numerically stable and independent of
    // realization order beyond the (fixed) index order.
    double ss = 0.0;
    for (const Evaluation* ev : per_realization) {
      const double d = ev->pdr - out.mean_pdr;
      ss += d * d;
    }
    const double stderr_mean = std::sqrt(ss / (k_count - 1)) /
                               std::sqrt(static_cast<double>(k_count));
    const double half = robust_z_value(robust.confidence) * stderr_mean;
    out.pdr_lo = std::max(0.0, out.mean_pdr - half);
    out.pdr_hi = std::min(1.0, out.mean_pdr + half);
  } else {
    out.pdr_lo = out.mean_pdr;  // a single draw carries no spread estimate
    out.pdr_hi = out.mean_pdr;
  }
  out.protection_mw = model::robust_protection_mw(cfg, robust.gamma);
  // Γ = 0 adds exactly 0.0, so robust_power_mw is bit-identical to the
  // measured power on the collapse path.
  out.robust_power_mw = robust.gamma > 0
                            ? out.worst_power_mw + out.protection_mw
                            : out.worst_power_mw;
  return out;
}

CandidateRecord robust_record(const model::NetworkConfig& cfg,
                              const RobustEvaluation& rev) {
  CandidateRecord rec{cfg, model::node_power_mw(cfg) + rev.protection_mw,
                      rev.worst_pdr, rev.robust_power_mw, rev.worst_nlt_s};
  rec.pdr_lo = rev.pdr_lo;
  rec.pdr_hi = rev.pdr_hi;
  return rec;
}

RobustBatch::RobustBatch(Evaluator& eval, int threads,
                         RobustnessOptions robust)
    : eval_(eval), robust_(robust.active() ? robust : RobustnessOptions{}) {
  require_valid(robust_);
  HI_REQUIRE(threads >= 0,
             "threads must be >= 0 (0 = serial), got " << threads);
  for (int k = 0; k < robust_.realizations; ++k) {
    realizations_.push_back(&eval_.realization(k));
  }
  if (threads > 0) {
    pool_ = std::make_unique<exec::ThreadPool>(threads);
  }
}

std::vector<RobustEvaluation> RobustBatch::evaluate(
    const std::vector<model::NetworkConfig>& cfgs) {
  const std::size_t k_count = realizations_.size();
  // Resolved per call: explorers install a per-run registry into the
  // evaluator (see dse::detail::RunScope).  exec.* totals describe the
  // schedule (the serial path schedules no tasks) and are deliberately
  // not part of the bit-identical contract; dse.* / net.* are.
  obs::MetricsRegistry* metrics = eval_.metrics();
  obs::ScopedTimer timer(metrics, "exec.batch_s");
  if (metrics != nullptr) {
    metrics->counter("exec.batches").add(1);
    metrics->counter("exec.requests").add(k_count * cfgs.size());
  }

  // ---- schedule: every (realization, design point) miss, one pool ----
  // On the serial path nothing is scheduled and commit simulates inline.
  using Tasks = std::unordered_map<std::uint64_t, std::future<Evaluation>>;
  std::vector<Tasks> tasks(k_count);
  for (std::size_t k = 0; pool_ != nullptr && k < k_count; ++k) {
    const Evaluator& ev = *realizations_[k];
    for (const model::NetworkConfig& cfg : cfgs) {
      const std::uint64_t key = cfg.design_key();
      if (tasks[k].contains(key) || ev.cached(cfg)) {
        continue;
      }
      tasks[k].emplace(key, pool_->submit([&ev, cfg] {
        return ev.simulate_uncached(cfg);
      }));
      if (metrics != nullptr) {
        metrics->counter("exec.tasks_scheduled").add(1);
      }
    }
  }

  // ---- wait: failed tasks too, so no task still runs (and records into
  // the run's registry) once commit rethrows a failure ----------------
  for (const Tasks& per_k : tasks) {
    for (const auto& [key, fut] : per_k) {
      fut.wait();
    }
  }

  // ---- commit: the serial bookkeeping, realization-major -------------
  std::vector<std::vector<const Evaluation*>> per_k(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    Evaluator& ev = *realizations_[k];
    per_k[k].reserve(cfgs.size());
    for (const model::NetworkConfig& cfg : cfgs) {
      const auto it = tasks[k].find(cfg.design_key());
      if (it == tasks[k].end() || ev.cached(cfg)) {
        // Serial path, cached before this call, or committed earlier in
        // this loop: the plain evaluate (inline simulation or hit).
        per_k[k].push_back(&ev.evaluate(cfg));
        continue;
      }
      std::optional<Evaluation> computed;
      try {
        computed = it->second.get();
      } catch (...) {
        // The worker's simulation failed: reproduce it serially below.
        // simulate_uncached is pure, so admit() throws the same
        // exception after the same counter updates a serial run makes.
      }
      per_k[k].push_back(
          &ev.admit(cfg, computed.has_value() ? &*computed : nullptr));
    }
  }

  if (metrics != nullptr) {
    metrics->counter("dse.realizations").add(k_count * cfgs.size());
  }
  std::vector<RobustEvaluation> out;
  out.reserve(cfgs.size());
  std::vector<const Evaluation*> per(k_count);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    for (std::size_t k = 0; k < k_count; ++k) {
      per[k] = per_k[k][i];
    }
    out.push_back(aggregate_robust(cfgs[i], per, robust_));
  }
  return out;
}

RobustEvaluation RobustBatch::evaluate_one(const model::NetworkConfig& cfg) {
  return evaluate({cfg}).front();
}

}  // namespace hi::dse
