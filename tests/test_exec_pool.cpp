// Unit tests for the hi::exec execution substrate: ThreadPool semantics
// (completion-order independence, exception propagation, graceful
// shutdown with queued work), and dse::RobustBatch, the batch engine that
// runs RunSim on it: one pool for all K realizations, in-batch dedup,
// serial-identical results and counters, serial error reproduction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "dse/explorer.hpp"
#include "dse/robustness.hpp"
#include "exec/thread_pool.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"

namespace hi::exec {
namespace {

TEST(ThreadPool, RejectsANonPositiveWorkerCount) {
  EXPECT_THROW(ThreadPool{0}, ModelError);
  EXPECT_THROW(ThreadPool{-3}, ModelError);
}

TEST(ThreadPool, ReportsItsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, ResultsAreIndependentOfCompletionOrder) {
  // Early-submitted tasks sleep longest, so later tasks routinely finish
  // first; each future must still carry its own task's result.
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i] {
      std::this_thread::sleep_for(std::chrono::microseconds((kTasks - i) * 20));
      return i * i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesTaskExceptionsToTheCaller) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // graceful destructor: every already-queued task still runs
  EXPECT_EQ(ran.load(), 100);
}

// ---------------------------------------------------------------------------
// dse::RobustBatch — the batch engine that runs on the pool

/// What the channel factory saw: with runs == 1, one factory call == one
/// simulation actually executed (as opposed to the evaluator's
/// simulations() counter, which counts *requests*), made on the thread
/// that ran it.
struct ChannelProbe {
  std::atomic<int> calls{0};
  std::mutex mu;
  std::set<std::thread::id> threads;
};

dse::EvaluatorSettings probed_settings(std::shared_ptr<ChannelProbe> probe,
                                       double duration_s = 5.0) {
  dse::EvaluatorSettings s;
  s.sim.duration_s = duration_s;
  s.sim.seed = 99;
  s.runs = 1;
  net::ChannelFactory inner = net::default_channel_factory();
  s.channel = [probe, inner](std::uint64_t seed) {
    probe->calls.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(probe->mu);
      probe->threads.insert(std::this_thread::get_id());
    }
    return inner(seed);
  };
  return s;
}

model::NetworkConfig exec_config(int lvl = 1) {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), lvl,
                        model::MacProtocol::kCsma,
                        model::RoutingProtocol::kStar);
}

dse::RobustnessOptions realizations(int k) {
  dse::RobustnessOptions r;
  r.realizations = k;
  return r;
}

TEST(RobustBatch, RejectsNegativeThreads) {
  dse::Evaluator eval(probed_settings(std::make_shared<ChannelProbe>()));
  EXPECT_THROW((dse::RobustBatch{eval, -1, {}}), ModelError);
  // So does every explorer, before it evaluates anything.
  dse::ExplorationOptions opt;
  opt.threads = -1;
  EXPECT_THROW((void)dse::run_exhaustive(model::Scenario{}, eval, opt),
               ModelError);
  EXPECT_EQ(eval.simulations(), 0u);
}

TEST(RobustBatch, DuplicatesWithinABatchSimulateOncePerRealization) {
  auto probe = std::make_shared<ChannelProbe>();
  dse::Evaluator eval(probed_settings(probe));
  dse::RobustBatch batch(eval, 4, realizations(2));
  const std::vector<model::NetworkConfig> cfgs{
      exec_config(0), exec_config(1), exec_config(0), exec_config(0),
      exec_config(1)};
  const std::vector<dse::RobustEvaluation> revs = batch.evaluate(cfgs);
  ASSERT_EQ(revs.size(), cfgs.size());
  EXPECT_EQ(probe->calls.load(), 4);  // two design points x two channels
  // Counters replay the serial bookkeeping in each realization: 2 misses
  // + 3 in-batch hits.
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(eval.realization(k).simulations(), 2u) << "k=" << k;
    EXPECT_EQ(eval.realization(k).cache_hits(), 3u) << "k=" << k;
  }
  // Duplicate entries fold the same cached results.
  EXPECT_EQ(revs[0].worst_pdr, revs[2].worst_pdr);
  EXPECT_EQ(revs[0].mean_pdr, revs[3].mean_pdr);
  EXPECT_EQ(revs[1].worst_power_mw, revs[4].worst_power_mw);
}

TEST(RobustBatch, ParallelResultsMatchSerialBitForBit) {
  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  dse::EvaluatorSettings sa = probed_settings(std::make_shared<ChannelProbe>());
  dse::EvaluatorSettings sb = probed_settings(std::make_shared<ChannelProbe>());
  sa.metrics = &reg_a;
  sb.metrics = &reg_b;
  dse::Evaluator serial(sa);
  dse::Evaluator parallel(sb);
  dse::RobustBatch serial_batch(serial, 0, realizations(3));
  dse::RobustBatch parallel_batch(parallel, 3, realizations(3));
  std::vector<model::NetworkConfig> cfgs;
  for (int lvl = 0; lvl < 3; ++lvl) {
    cfgs.push_back(exec_config(lvl));
  }
  cfgs.push_back(exec_config(1));  // an in-batch hit
  const auto ser = serial_batch.evaluate(cfgs);
  const auto par = parallel_batch.evaluate(cfgs);
  ASSERT_EQ(ser.size(), par.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(ser[i].worst_pdr, par[i].worst_pdr);
    EXPECT_EQ(ser[i].mean_pdr, par[i].mean_pdr);
    EXPECT_EQ(ser[i].pdr_lo, par[i].pdr_lo);
    EXPECT_EQ(ser[i].pdr_hi, par[i].pdr_hi);
    EXPECT_EQ(ser[i].worst_power_mw, par[i].worst_power_mw);
    EXPECT_EQ(ser[i].worst_nlt_s, par[i].worst_nlt_s);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(serial.realization(k).simulations(),
              parallel.realization(k).simulations());
    EXPECT_EQ(serial.realization(k).cache_hits(),
              parallel.realization(k).cache_hits());
  }
  // Every counter but the schedule-describing exec.* ones agrees.
  const obs::Snapshot a = reg_a.snapshot();
  const obs::Snapshot b = reg_b.snapshot();
  EXPECT_GT(a.counter("net.runs"), 0u);
  for (const auto& [name, value] : a.counters) {
    if (name.rfind("exec.", 0) != 0) {
      EXPECT_EQ(value, b.counter(name)) << name;
    }
  }
  EXPECT_EQ(a.counter("exec.requests"), b.counter("exec.requests"));
  EXPECT_EQ(b.counter("exec.batches"), 1u);  // one call, all K realizations
  EXPECT_EQ(b.counter("exec.tasks_scheduled"), 9u);  // 3 points x 3 channels
}

TEST(RobustBatch, PropagatesSimulationErrorsLikeSerial) {
  // A star config whose coordinator carries no node: simulate() rejects
  // it at run time.  The pool path must surface the same ModelError,
  // after the same counter updates, and cache nothing for it.
  model::NetworkConfig bad = exec_config();
  bad.topology = model::Topology::from_locations({1, 3, 5, 6});  // no loc 0
  dse::Evaluator serial(probed_settings(std::make_shared<ChannelProbe>()));
  dse::Evaluator parallel(probed_settings(std::make_shared<ChannelProbe>()));
  dse::RobustBatch serial_batch(serial, 0, realizations(2));
  dse::RobustBatch parallel_batch(parallel, 2, realizations(2));
  EXPECT_THROW((void)serial_batch.evaluate({bad}), ModelError);
  EXPECT_THROW((void)parallel_batch.evaluate({bad}), ModelError);
  // A retry fails identically (serial parity).
  EXPECT_THROW((void)parallel_batch.evaluate({bad}), ModelError);
  for (int k = 0; k < 2; ++k) {
    EXPECT_FALSE(parallel.realization(k).cached(bad)) << "k=" << k;
    EXPECT_EQ(serial.realization(k).simulations(),
              parallel.realization(k).simulations())
        << "k=" << k;
  }
}

TEST(RobustBatch, SerialFallbackUsesNoPool) {
  auto probe = std::make_shared<ChannelProbe>();
  dse::Evaluator eval(probed_settings(probe));
  dse::RobustBatch batch(eval, 0, {});
  const auto revs = batch.evaluate({exec_config(), exec_config()});
  ASSERT_EQ(revs.size(), 2u);
  EXPECT_EQ(revs[0].worst_pdr, revs[1].worst_pdr);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.cache_hits(), 1u);
  // The one simulation ran on the calling thread: no worker exists.
  EXPECT_EQ(probe->threads,
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(RobustBatch, OnePoolServesEveryRealization) {
  // K = 3 realizations at threads = 2: all 3·n misses of a batch share
  // one pool, so no more than 2 worker threads ever run a simulation.
  auto probe = std::make_shared<ChannelProbe>();
  dse::Evaluator eval(probed_settings(probe, /*duration_s=*/2.0));
  model::Scenario sc;
  sc.max_nodes = 4;
  dse::ExplorationOptions opt;
  opt.threads = 2;
  opt.robust = realizations(3);
  const dse::ExplorationResult res = dse::run_exhaustive(sc, eval, opt);
  EXPECT_GT(res.simulations, 0u);
  EXPECT_GE(probe->threads.size(), 1u);
  EXPECT_LE(probe->threads.size(), 2u);
  EXPECT_EQ(probe->threads.count(std::this_thread::get_id()), 0u);
}

}  // namespace
}  // namespace hi::exec
