// Tests for the hi::obs observability layer (src/obs): registry
// concurrency under hi::exec workers, sink round-trips, the zero-sink
// fast path, and the end-to-end contract that explorer snapshots mirror
// the legacy counters bit-for-bit at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "channel/channel.hpp"
#include "dse/explorer.hpp"
#include "exec/thread_pool.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace hi::obs {
namespace {

// ---- registry ----------------------------------------------------------

TEST(Metrics, CountersAreExactUnderConcurrentWorkers) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20'000;
  {
    exec::ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    for (int t = 0; t < kThreads; ++t) {
      done.push_back(pool.submit([&reg] {
        // Lookup + cached-pointer pattern, as hot paths use it.
        Counter& c = reg.counter("test.adds");
        Gauge& g = reg.gauge("test.hwm");
        Histogram& h = reg.histogram("test.obs");
        for (int i = 0; i < kAddsPerThread; ++i) {
          c.add(1);
          g.update_max(static_cast<double>(i));
          h.observe(1.0);
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.adds"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_DOUBLE_EQ(snap.gauge("test.hwm"), kAddsPerThread - 1.0);
  const HistogramSummary* h = snap.histogram("test.obs");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 1.0);
}

TEST(Metrics, InstrumentReferencesAreStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  // Creating many more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    reg.counter(std::string("c").append(std::to_string(i))).add(1);
  }
  EXPECT_EQ(&a, &reg.counter("a"));
  a.add(7);
  EXPECT_EQ(reg.snapshot().counter("a"), 7u);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  EXPECT_LE(Histogram::bucket_of(1e-9), Histogram::bucket_of(1e-3));
  EXPECT_LE(Histogram::bucket_of(1e-3), Histogram::bucket_of(1.0));
  EXPECT_LE(Histogram::bucket_of(1.0), Histogram::bucket_of(1e6));

  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i) / 1000.0);  // uniform on (0, 1]
  }
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.mean(), 0.5005, 1e-9);  // mean of 1/1000 .. 1000/1000
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  // Power-of-two buckets: quantiles are within a factor of 2.
  const double q50 = s.approx_quantile(0.5);
  EXPECT_GE(q50, 0.25);
  EXPECT_LE(q50, 1.0);
}

TEST(Snapshot, DeltaSubtractsCountersAndKeepsGauges) {
  MetricsRegistry reg;
  reg.counter("n").add(10);
  reg.gauge("g").set(3.5);
  reg.histogram("h").observe(1.0);
  const Snapshot base = reg.snapshot();
  reg.counter("n").add(5);
  reg.counter("fresh").add(2);
  reg.gauge("g").set(7.0);
  reg.histogram("h").observe(2.0);
  const Snapshot delta = reg.snapshot().delta_since(base);
  EXPECT_EQ(delta.counter("n"), 5u);
  EXPECT_EQ(delta.counter("fresh"), 2u);
  EXPECT_EQ(delta.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(delta.gauge("g"), 7.0);
  const HistogramSummary* h = delta.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 2.0);
}

TEST(Snapshot, WriteJsonIsOneObjectWithAllSections) {
  MetricsRegistry reg;
  reg.counter("dse.simulations").add(42);
  reg.gauge("des.heap_highwater").set(17.0);
  reg.histogram("milp.solve_s").observe(0.5);
  std::ostringstream oss;
  reg.snapshot().write_json(oss);
  const std::string j = oss.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"dse.simulations\": 42"), std::string::npos);
  EXPECT_NE(j.find("\"des.heap_highwater\""), std::string::npos);
  EXPECT_NE(j.find("\"milp.solve_s\""), std::string::npos);
  EXPECT_NE(j.find("\"count\": 1"), std::string::npos);
}

// ---- timer -------------------------------------------------------------

TEST(Timer, ObservesElapsedIntoHistogram) {
  MetricsRegistry reg;
  {
    ScopedTimer t(&reg, "phase_s");
    EXPECT_GE(t.elapsed_s(), 0.0);
  }
  const Snapshot snap = reg.snapshot();
  const HistogramSummary* h = snap.histogram("phase_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_GE(h->sum, 0.0);
}

TEST(Timer, NullRegistryIsANoOp) {
  ScopedTimer t(nullptr, "never");
  EXPECT_DOUBLE_EQ(t.elapsed_s(), 0.0);  // the clock is not even read
}

// ---- trace sinks -------------------------------------------------------

TraceEvent sample_event() {
  TraceEvent e;
  e.t_s = 1.25;
  e.kind = TraceKind::kTx;
  e.node = 3;
  e.peer = 0;
  e.a = 42;
  e.x = 16.0;
  e.y = 0.002;
  return e;
}

TEST(Trace, JsonlSinkWritesOneObjectPerLine) {
  std::ostringstream oss;
  JsonlTraceSink sink(oss);
  RunTrace trace(&sink);
  ASSERT_TRUE(trace.enabled());
  trace.record(sample_event());
  TraceEvent drop = sample_event();
  drop.kind = TraceKind::kDropBuffer;
  trace.record(drop);
  const std::string out = oss.str();
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(out.find("\"kind\": \"tx\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\": \"drop_buffer\""), std::string::npos);
  EXPECT_NE(out.find("\"node\": 3"), std::string::npos);
}

TEST(Trace, CsvSinkWritesHeaderOnceThenRows) {
  std::ostringstream oss;
  CsvTraceSink sink(oss);
  RunTrace trace(&sink);
  trace.record(sample_event());
  trace.record(sample_event());
  const std::string out = oss.str();
  EXPECT_EQ(out.find("t,kind,node,peer,a,x,y\n"), 0u);
  EXPECT_EQ(out.find("t,kind", 1), std::string::npos);  // header once
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 rows
}

TEST(Trace, MemorySinkRoundTripsEvents) {
  MemoryTraceSink sink;
  RunTrace trace(&sink);
  trace.record(sample_event());
  const std::vector<TraceEvent> evs = sink.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_DOUBLE_EQ(evs[0].t_s, 1.25);
  EXPECT_EQ(evs[0].kind, TraceKind::kTx);
  EXPECT_EQ(evs[0].node, 3);
  EXPECT_EQ(evs[0].a, 42);
}

TEST(Trace, NoSinkIsDisabledAndFree) {
  const RunTrace trace;
  EXPECT_FALSE(trace.enabled());
  trace.record(sample_event());  // must be a harmless no-op
}

// ---- one real simulation, observed ------------------------------------

net::SimParams fast_params() {
  net::SimParams sp;
  sp.duration_s = 10.0;
  sp.seed = 11;
  return sp;
}

model::NetworkConfig reference_config() {
  model::Scenario sc;
  return sc.make_config(model::Topology::from_locations({0, 1, 3, 5}), 2,
                        model::MacProtocol::kTdma,
                        model::RoutingProtocol::kStar);
}

TEST(ObsIntegration, SimulationMetricsMirrorSimResult) {
  MetricsRegistry reg;
  net::SimParams sp = fast_params();
  sp.metrics = &reg;
  const auto ch = channel::make_default_body_channel(1);
  const net::SimResult res = net::simulate(reference_config(), *ch, sp);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("net.runs"), 1u);
  EXPECT_EQ(snap.counter("des.events"), res.events);
  EXPECT_GE(snap.gauge("des.heap_highwater"), 1.0);
  std::uint64_t app_sent = 0, tx = 0;
  for (const auto& n : res.nodes) {
    app_sent += n.app_sent;
    tx += n.radio.tx_packets;
  }
  EXPECT_EQ(snap.counter("net.app.sent"), app_sent);
  EXPECT_EQ(snap.counter("net.radio.tx_packets"), tx);
  EXPECT_EQ(snap.counter("net.medium.transmissions"),
            res.medium.transmissions);
}

TEST(ObsIntegration, SimulationTraceCarriesTxAndKernelEvents) {
  MemoryTraceSink sink;
  const RunTrace trace(&sink);
  net::SimParams sp = fast_params();
  sp.trace = &trace;
  const auto ch = channel::make_default_body_channel(1);
  const net::SimResult res = net::simulate(reference_config(), *ch, sp);
  const std::vector<TraceEvent> evs = sink.events();
  ASSERT_FALSE(evs.empty());
  std::uint64_t tx_events = 0, kernel_events = 0;
  double prev_t = 0.0;
  for (const TraceEvent& e : evs) {
    EXPECT_GE(e.t_s, 0.0);
    EXPECT_LE(e.t_s, sp.duration_s + 1e-9);
    if (e.kind == TraceKind::kTx) {
      ++tx_events;
      EXPECT_GE(e.t_s, prev_t);  // medium records in simulation order
      prev_t = e.t_s;
    }
    if (e.kind == TraceKind::kKernel) {
      ++kernel_events;
      EXPECT_EQ(static_cast<std::uint64_t>(e.a), res.events);
    }
  }
  // The medium records one kTx per transmission it carries.
  EXPECT_EQ(tx_events, res.medium.transmissions);
  EXPECT_EQ(kernel_events, 1u);
  // Per-node end-of-run summaries are present for every node.
  std::uint64_t energy_events = 0;
  for (const TraceEvent& e : evs) {
    energy_events += e.kind == TraceKind::kNodeEnergy;
  }
  EXPECT_EQ(energy_events, res.nodes.size());
}

}  // namespace
}  // namespace hi::obs

// ---- explorer snapshots (the acceptance contract) ----------------------

namespace hi::dse {
namespace {

EvaluatorSettings fast_settings() {
  EvaluatorSettings s;
  s.sim.duration_s = 4.0;
  s.sim.seed = 2017;
  s.runs = 1;
  return s;
}

model::Scenario small_scenario() {
  model::Scenario sc;
  sc.max_nodes = 4;
  return sc;
}

TEST(ObsExplorers, SnapshotSimulationsEqualLegacyFieldAtAnyThreadCount) {
  for (Explorer ex : Explorer::all()) {
    SCOPED_TRACE(ex.name());
    ExplorationOptions opt;
    opt.pdr_min = 0.7;
    if (ex.kind() == ExplorerKind::kAnnealing) {
      opt.budget = 60;
    }
    Evaluator serial(fast_settings());
    const ExplorationResult a = ex.run(small_scenario(), serial, opt);
    EXPECT_GT(a.simulations, 0u);
    EXPECT_EQ(a.metrics.counter("dse.simulations"), a.simulations);

    Evaluator parallel(fast_settings());
    opt.threads = 4;
    const ExplorationResult b = ex.run(small_scenario(), parallel, opt);
    EXPECT_EQ(b.metrics.counter("dse.simulations"), b.simulations);
    EXPECT_EQ(a.metrics.counter("dse.simulations"),
              b.metrics.counter("dse.simulations"));
    EXPECT_EQ(a.simulations, b.simulations);
  }
}

TEST(ObsExplorers, CallerRegistryReceivesTheRunAndResultCarriesDelta) {
  obs::MetricsRegistry reg;
  reg.counter("dse.simulations").add(1000);  // pre-existing noise
  const obs::Snapshot before = reg.snapshot();
  Evaluator ev(fast_settings());
  ExplorationOptions opt;
  opt.pdr_min = 0.7;
  opt.metrics = &reg;
  const ExplorationResult res = run_exhaustive(small_scenario(), ev, opt);
  // The result snapshot is a delta: the pre-existing 1000 is excluded.
  EXPECT_EQ(res.metrics.counter("dse.simulations"), res.simulations);
  EXPECT_EQ(reg.snapshot().counter("dse.simulations") -
                before.counter("dse.simulations"),
            res.simulations);
  // The stack's counters flowed into the caller's registry too.
  EXPECT_GT(res.metrics.counter("des.events"), 0u);
  EXPECT_GT(res.metrics.counter("net.runs"), 0u);
  // And the evaluator was restored to its unobserved state.
  EXPECT_EQ(ev.metrics(), nullptr);
}

TEST(ObsExplorers, EvaluatorSettingsRegistryIsUsedWhenOptionsHaveNone) {
  obs::MetricsRegistry reg;
  EvaluatorSettings s = fast_settings();
  s.metrics = &reg;
  Evaluator ev(s);
  ASSERT_EQ(ev.metrics(), &reg);
  ExplorationOptions opt;
  opt.pdr_min = 0.7;
  const ExplorationResult res = run_algorithm1(small_scenario(), ev, opt);
  EXPECT_EQ(res.metrics.counter("dse.simulations"), res.simulations);
  EXPECT_EQ(reg.snapshot().counter("dse.simulations"), res.simulations);
  EXPECT_GT(reg.snapshot().counter("milp.solves"), 0u);
  EXPECT_EQ(ev.metrics(), &reg);  // still attached after the run
}

TEST(ObsExplorers, EvaluatorMirrorsCountersIntoRegistry) {
  obs::MetricsRegistry reg;
  EvaluatorSettings s = fast_settings();
  s.metrics = &reg;
  Evaluator ev(s);
  const model::Scenario sc = small_scenario();
  const auto cfg = sc.make_config(
      model::Topology::from_locations({0, 1, 3, 5}), 2,
      model::MacProtocol::kTdma, model::RoutingProtocol::kStar);
  (void)ev.evaluate(cfg);
  (void)ev.evaluate(cfg);  // cache hit
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("dse.simulations"), ev.simulations());
  EXPECT_EQ(snap.counter("dse.cache_hits"), ev.cache_hits());
  EXPECT_EQ(snap.counter("dse.simulations"), 1u);
  EXPECT_EQ(snap.counter("dse.cache_hits"), 1u);
  ASSERT_NE(snap.histogram("dse.simulate_s"), nullptr);
  EXPECT_EQ(snap.histogram("dse.simulate_s")->count, 1u);
}

}  // namespace
}  // namespace hi::dse
