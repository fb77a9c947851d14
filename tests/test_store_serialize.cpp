// hi::store serialization: binary codec round-trips, fingerprint
// sensitivity (and insensitivity to cosmetic strings), the scenario
// JSON interchange form, and one exact document per JSON writer schema.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "channel/channel.hpp"
#include "check/scenario_gen.hpp"
#include "check/store_props.hpp"
#include "common/json_string.hpp"
#include "dse/evaluator.hpp"
#include "model/crowd.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"
#include "store/crowd_codec.hpp"
#include "store/json.hpp"
#include "store/serialize.hpp"

namespace {

using namespace hi;
using store::ByteReader;
using store::ByteWriter;
using store::Digest;

/// The scenario examples/custom_scenario.cpp builds — a customized chip,
/// an extra required location, and a tighter node budget — so the JSON
/// round-trip is exercised on a hand-written (not generated) instance.
model::Scenario custom_example_scenario() {
  model::RadioChip thrifty;
  thrifty.name = "hypothetical sub-mW WBAN radio";
  thrifty.fc_hz = 2.4e9;
  thrifty.bit_rate_bps = 250e3;
  thrifty.rx_dbm = -100.0;
  thrifty.rx_mw = 6.0;
  thrifty.tx_levels = {{-16.0, 4.2}, {-8.0, 5.5}, {0.0, 8.9}};

  model::Scenario scenario;
  scenario.chip = thrifty;
  scenario.required_locations = {0, 8};
  scenario.coverage = {
      {{1, 2}, "gait (hip)"},
      {{3, 4}, "gait (foot)"},
      {{5, 6}, "vitals (wrist)"},
  };
  scenario.dependencies = {{7, 8, "head strap needs a neck relay"}};
  scenario.min_nodes = 5;
  scenario.max_nodes = 6;
  scenario.app.throughput_pps = 5.0;
  scenario.tdma_slot_s = 4e-3;
  return scenario;
}

TEST(StoreSerialize, ByteCodecRoundTripsPrimitives) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_bool(true);
  w.put_f64(-0.0);
  w.put_f64(1.0 / 3.0);
  w.put_string(std::string_view("nul\0safe", 8));  // length-prefixed
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_TRUE(r.get_bool());
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // -0.0 survives (bit pattern)
  EXPECT_EQ(r.get_f64(), 1.0 / 3.0);
  EXPECT_EQ(r.get_string(), std::string("nul\0safe", 8));
  EXPECT_TRUE(r.at_end());
}

TEST(StoreSerialize, ByteReaderFailureIsSticky) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u64(), 0u);  // read past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.get_u32(), 0u);  // stays failed even though 4 bytes exist
  EXPECT_FALSE(r.at_end());
}

TEST(StoreSerialize, ConfigBinaryRoundTrip) {
  const model::Scenario sc;
  const std::vector<model::NetworkConfig> configs = sc.feasible_configs();
  ASSERT_FALSE(configs.empty());
  for (std::size_t i = 0; i < configs.size(); i += 97) {
    ByteWriter w;
    store::write_config(w, configs[i]);
    ByteReader r(w.bytes());
    model::NetworkConfig back;
    ASSERT_TRUE(store::read_config(r, back));
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(back, configs[i]);
    EXPECT_EQ(back.design_key(), configs[i].design_key());
  }
}

TEST(StoreSerialize, EvaluationBinaryRoundTripIsBitExact) {
  const check::ScenarioSpec spec = check::make_scenario(3, /*shrink_level=*/2);
  dse::Evaluator eval(spec.settings);
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  ASSERT_FALSE(configs.empty());
  const dse::Evaluation ev = eval.simulate_uncached(configs.front());

  ByteWriter w;
  store::write_evaluation(w, ev);
  ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  EXPECT_TRUE(r.at_end());
  // Bit-exactness made testable: re-serializing yields the same bytes.
  ByteWriter w2;
  store::write_evaluation(w2, back);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(back.pdr, ev.pdr);
  EXPECT_EQ(back.power_mw, ev.power_mw);
  EXPECT_EQ(back.nlt_s, ev.nlt_s);
  EXPECT_EQ(back.detail.nodes.size(), ev.detail.nodes.size());
}

TEST(StoreSerialize, SettingsFingerprintCoversEverySimKnob) {
  const dse::EvaluatorSettings base;
  const Digest fp = store::settings_fingerprint(base, "default");
  EXPECT_EQ(fp, store::settings_fingerprint(base, "default"));
  EXPECT_EQ(fp.hex().size(), 64u);

  auto differs = [&](auto mutate) {
    dse::EvaluatorSettings s;
    mutate(s);
    return store::settings_fingerprint(s, "default") != fp;
  };
  EXPECT_TRUE(differs([](auto& s) { s.sim.duration_s += 1.0; }));
  EXPECT_TRUE(differs([](auto& s) { s.sim.seed += 1; }));
  EXPECT_TRUE(differs([](auto& s) { s.sim.channel_seed = 99; }));
  EXPECT_TRUE(differs([](auto& s) { s.sim.capture_db += 0.5; }));
  EXPECT_TRUE(differs([](auto& s) { s.runs += 1; }));
  EXPECT_NE(store::settings_fingerprint(base, "harsh-channel"), fp);
  // Threads and metrics are execution details, not result inputs.
  EXPECT_FALSE(differs([](auto& s) { s.threads = 7; }));
}

TEST(StoreSerialize, ScenarioFingerprintIgnoresCosmeticStrings) {
  model::Scenario a;
  const Digest fp = store::scenario_fingerprint(a);
  model::Scenario renamed;
  renamed.chip.name = "same silicon, new marketing";
  renamed.coverage[0].reason = "different words, same constraint";
  EXPECT_EQ(store::scenario_fingerprint(renamed), fp);

  model::Scenario deeper;
  deeper.max_hops = 3;
  EXPECT_NE(store::scenario_fingerprint(deeper), fp);
  model::Scenario tighter;
  tighter.max_nodes = 5;
  EXPECT_NE(store::scenario_fingerprint(tighter), fp);
}

TEST(StoreSerialize, OptionsFingerprintSeparatesStrategies) {
  const dse::ExplorationOptions opt;
  const Digest alg1 =
      store::options_fingerprint(opt, dse::ExplorerKind::kAlgorithm1);
  EXPECT_NE(alg1,
            store::options_fingerprint(opt, dse::ExplorerKind::kExhaustive));
  EXPECT_NE(alg1,
            store::options_fingerprint(opt, dse::ExplorerKind::kAnnealing));

  dse::ExplorationOptions bounded = opt;
  bounded.bound = dse::TerminationBound::kPaperAlpha;
  EXPECT_NE(store::options_fingerprint(bounded, dse::ExplorerKind::kAlgorithm1),
            alg1);
  // The annealer's seed matters to the annealer only.
  dse::ExplorationOptions reseeded = opt;
  reseeded.seed += 1;
  EXPECT_EQ(
      store::options_fingerprint(reseeded, dse::ExplorerKind::kAlgorithm1),
      alg1);
  EXPECT_NE(
      store::options_fingerprint(reseeded, dse::ExplorerKind::kAnnealing),
      store::options_fingerprint(opt, dse::ExplorerKind::kAnnealing));
  // Observability hooks never change what a cell computes.
  dse::ExplorationOptions observed = opt;
  observed.threads = 4;
  EXPECT_EQ(
      store::options_fingerprint(observed, dse::ExplorerKind::kAlgorithm1),
      alg1);
}

TEST(StoreSerialize, ScenarioJsonRoundTripPaperDefault) {
  EXPECT_EQ(check::check_scenario_roundtrip(model::Scenario{}),
            std::vector<std::string>{});
}

TEST(StoreSerialize, ScenarioJsonRoundTripCustomExample) {
  EXPECT_EQ(check::check_scenario_roundtrip(custom_example_scenario()),
            std::vector<std::string>{});
}

TEST(StoreSerialize, ScenarioJsonRoundTripGeneratorScenarios) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const check::ScenarioSpec spec = check::make_scenario(seed);
    EXPECT_EQ(check::check_scenario_roundtrip(spec.scenario),
              std::vector<std::string>{})
        << spec.summary();
  }
}

TEST(StoreSerialize, ScenarioJsonRejectsUnknownKeysAndGarbage) {
  std::string err;
  EXPECT_FALSE(store::scenario_from_json("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(store::scenario_from_json("[1,2,3]", &err).has_value());

  std::string json = store::scenario_to_json(model::Scenario{});
  const std::string key = "\"max_hops\"";
  json.replace(json.find(key), key.size(), "\"max_hopz\"");
  EXPECT_FALSE(store::scenario_from_json(json, &err).has_value());
  EXPECT_NE(err.find("max_hopz"), std::string::npos);

  // Only the JSON number grammar, and only finite values: none of these
  // may reach Scenario::battery_j.
  const std::string doc = store::scenario_to_json(model::Scenario{});
  const std::string battery = "\"battery_j\": 2430,";
  ASSERT_NE(doc.find(battery), std::string::npos);
  const auto with_battery = [&](const std::string& token) {
    std::string j = doc;
    return j.replace(j.find(battery), battery.size(),
                     "\"battery_j\": " + token + ",");
  };
  for (const char* token : {"inf", "-nan", "1e999", "0x10", "+5", ".5"}) {
    err.clear();
    EXPECT_FALSE(store::scenario_from_json(with_battery(token), &err))
        << token;
    EXPECT_FALSE(err.empty()) << token;
  }
  const auto ok = store::scenario_from_json(with_battery("-2.43E+3"), &err);
  ASSERT_TRUE(ok.has_value()) << err;
  EXPECT_EQ(ok->battery_j, -2430.0);
}

/// `json` with the array value of `"key"` replaced by `value`.
std::string replace_array(std::string json, const std::string& key,
                          const std::string& value) {
  const std::size_t open = json.find("\"" + key + "\": [") + key.size() + 4;
  std::size_t close = open;
  for (int depth = 0; close == open || depth > 0; ++close) {
    depth += json[close] == '[' ? 1 : (json[close] == ']' ? -1 : 0);
  }
  return json.replace(open, close - open, value);
}

TEST(StoreSerialize, ScenarioJsonRejectsNonArrayFields) {
  const std::string doc = store::scenario_to_json(model::Scenario{});
  for (const char* key : {"coverage", "dependencies", "tx_levels"}) {
    std::string err;
    EXPECT_FALSE(store::scenario_from_json(replace_array(doc, key, "5"), &err))
        << key;
    EXPECT_EQ(err, "field '" + std::string(key) + "' must be an array");
    // The same document with an array there still parses.
    EXPECT_TRUE(store::scenario_from_json(replace_array(doc, key, "[]"), &err))
        << key << ": " << err;
  }
}

TEST(StoreSerialize, EveryJsonEmitterRoundTripsEscapedStrings) {
  // A quote, a backslash, a newline and a raw control byte: every
  // document writer shares common/json_string.hpp, and the store's
  // parser must read each document back with the string intact.
  const std::string nasty = "a\"b\\c\nd\x01e";
  const auto parse = [](const std::string& doc) {
    EXPECT_EQ(doc.find('\x01'), std::string::npos) << "raw control byte";
    std::string err;
    std::optional<store::detail::JsonValue> v =
        store::detail::JsonParser(doc).parse(&err);
    EXPECT_TRUE(v.has_value()) << err << " in " << doc;
    return v.value_or(store::detail::JsonValue{});
  };
  const auto text_at = [](const store::detail::JsonValue& v,
                          const char* key) {
    const store::detail::JsonValue* f = v.find(key);
    return f != nullptr ? f->text : std::string("<missing>");
  };

  EXPECT_EQ(parse(JsonWriter().value(nasty).take()).text, nasty);

  model::Scenario sc;
  sc.chip.name = nasty;
  std::string err;
  const auto back = store::scenario_from_json(store::scenario_to_json(sc), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->chip.name, nasty);

  obs::MetricsRegistry reg;
  reg.counter(nasty).add(3);
  std::ostringstream snap;
  reg.snapshot().write_json(snap);
  const store::detail::JsonValue counters = *parse(snap.str()).find("counters");
  ASSERT_EQ(counters.fields.size(), 1u);
  EXPECT_EQ(counters.fields[0].first, nasty);

  campaign::CampaignReport rep;
  rep.store_path = nasty;
  std::ostringstream rep_json;
  rep.print(rep_json, /*json=*/true);
  EXPECT_EQ(text_at(parse(rep_json.str()), "store"), nasty);

  campaign::FleetReport fleet;
  fleet.shard_dir = nasty;
  fleet.merged_path = nasty;
  const store::detail::JsonValue fj = parse(fleet.to_json());
  EXPECT_EQ(text_at(fj, "shard_dir"), nasty);
  EXPECT_EQ(text_at(fj, "merged_store"), nasty);
}

// ---- one pinned document per library schema ----------------------------

TEST(JsonWriter, OneLayoutRuleAndOneNumberRule) {
  JsonWriter w;
  w.object(JsonWriter::kBlock).key("empty").array(JsonWriter::kBlock).end();
  w.key("row").object(JsonWriter::kInline).field("n", -3).field("ok", true);
  w.key("nested").array(JsonWriter::kBlock).value(0.1).value(1e300).end();
  w.field("s", "q\"").end().field("x", 0.1 + 0.2);
  w.field("inf", std::numeric_limits<double>::infinity()).field("nan", NAN);
  EXPECT_EQ(w.end().take(), R"json({
  "empty": [],
  "row": {"n": -3, "ok": true, "nested": [
    0.1,
    1e+300
  ], "s": "q\""},
  "x": 0.30000000000000004,
  "inf": null,
  "nan": null
}
)json");
  JsonWriter line;
  line.array(JsonWriter::kInline).object(JsonWriter::kInline).end();
  EXPECT_EQ(line.value(-0.0).end().take(), "[{}, -0]");
}

TEST(StoreSerialize, PinnedScenarioJson) {
  EXPECT_EQ(store::scenario_to_json(custom_example_scenario()), R"json({
  "format": "hi-scenario-v1",
  "chip": {
    "name": "hypothetical sub-mW WBAN radio",
    "fc_hz": 2.4e+09,
    "bit_rate_bps": 250000,
    "rx_dbm": -100,
    "rx_mw": 6,
    "tx_levels": [{"dbm": -16, "mw": 4.2}, {"dbm": -8, "mw": 5.5}, {"dbm": 0, "mw": 8.9}]
  },
  "app": {"baseline_mw": 0.1, "packet_bytes": 100, "throughput_pps": 5},
  "battery_j": 2430,
  "coordinator": 0,
  "max_hops": 2,
  "tdma_slot_s": 0.004,
  "mac_buffer_packets": 16,
  "required_locations": [0, 8],
  "coverage": [
    {"locations": [1, 2], "reason": "gait (hip)"},
    {"locations": [3, 4], "reason": "gait (foot)"},
    {"locations": [5, 6], "reason": "vitals (wrist)"}
  ],
  "dependencies": [
    {"if_used": 7, "then_used": 8, "reason": "head strap needs a neck relay"}
  ],
  "min_nodes": 5,
  "max_nodes": 6
}
)json");
}

TEST(StoreSerialize, PinnedCrowdScenarioJson) {
  model::CrowdScenario cs;
  cs.cfg.topology = model::Topology::from_mask(0x0F1);
  cs.cfg.mac.protocol = model::MacProtocol::kTdma;
  cs.cfg.mac.access_mode = model::CsmaAccessMode::kPersistent;
  cs.bodies = 2;
  cs.placement = {{0.0, 0.0}, {1.5, 0.1 + 0.2}};
  EXPECT_EQ(store::crowd_scenario_to_json(cs), R"json({
  "format": "hi-crowd-scenario-v1",
  "config": {
    "topology_mask": 241,
    "fc_hz": 2.4e+09,
    "bit_rate_bps": 1024000,
    "tx_dbm": 0,
    "tx_mw": 18.3,
    "rx_dbm": -97,
    "rx_mw": 17.7,
    "tx_level_index": 0,
    "mac": "tdma",
    "mac_buffer_packets": 16,
    "csma_persistent": true,
    "tdma_slot_s": 0.001,
    "routing": "star",
    "coordinator": 0,
    "max_hops": 2,
    "baseline_mw": 0.1,
    "packet_bytes": 100,
    "throughput_pps": 10,
    "battery_j": 2430
  },
  "bodies": 2,
  "spacing_m": 1,
  "cols": 0,
  "placement": [{"x_m": 0, "y_m": 0}, {"x_m": 1.5, "y_m": 0.30000000000000004}],
  "inter": {"pl0_db": 55, "d0_m": 1, "exponent": 3, "shadow_db": 7, "sigma_db": 6, "tau_s": 1, "min_distance_m": 0.2}
}
)json");
}

TEST(CampaignReport, PinnedJsonPrintsNullAndShortestRoundTrip) {
  campaign::CampaignReport rep;
  rep.store_path = "camp.store";
  rep.recovery.records = 7;
  rep.recovery.corrupt_dropped = 1;
  rep.recovery.tail_truncated = true;
  campaign::CellReport infeasible;
  infeasible.scenario = "paper";
  infeasible.pdr_min = 0.99;
  infeasible.result.best_power_mw = std::numeric_limits<double>::infinity();
  infeasible.result.simulations = 12;
  campaign::CellReport feasible;
  feasible.scenario = "paper";
  feasible.pdr_min = 0.9;
  feasible.skipped = true;
  feasible.result.feasible = true;
  feasible.result.best_power_mw = 0.1 * 3.0;  // needs 17 digits
  feasible.result.best_pdr = 0.9375;
  feasible.store_hits = 3;
  rep.cells = {infeasible, feasible};
  rep.stored_evals = 12;
  rep.stored_cells = 2;
  std::ostringstream os;
  rep.print(os, /*json=*/true);
  EXPECT_EQ(os.str(), R"json({
  "store": "camp.store",
  "recovery": {"records": 7, "corrupt_dropped": 1, "tail_truncated": true},
  "cells": [
    {"scenario": "paper", "pdr_min": 0.99, "skipped": false, "feasible": false, "best": "[], Star, CSMA, 0dBm", "best_power_mw": null, "best_pdr": 0, "simulations": 12, "store_hits": 0},
    {"scenario": "paper", "pdr_min": 0.9, "skipped": true, "feasible": true, "best": "[], Star, CSMA, 0dBm", "best_power_mw": 0.30000000000000004, "best_pdr": 0.9375, "simulations": 0, "store_hits": 3}
  ],
  "totals": {"cells": 2, "skipped": 1, "fresh_simulations": 12, "store_hits": 3, "stored_evals": 12, "stored_cells": 2}
}
)json");
}

TEST(CampaignReport, PinnedFleetJsonWithZeroShards) {
  campaign::FleetReport fleet;
  fleet.shard_dir = "fleet";
  fleet.merged_path = "fleet/merged.store";
  fleet.run_id = 42;
  fleet.workers = 2;
  fleet.planned_cells = 4;
  fleet.checkpointed_cells = 1;
  fleet.wall_s = 0.75;
  campaign::WorkerReport done;
  done.slot = 0;
  done.pid = 101;
  done.reported = true;
  done.rows_claimed = 1;
  done.cells_done = 1;
  done.fresh_simulations = 8;
  done.wall_s = 0.5;
  campaign::WorkerReport killed;
  killed.slot = 1;
  killed.pid = 102;
  killed.term_signal = 9;
  fleet.worker_reports = {done, killed};
  EXPECT_EQ(fleet.to_json(), R"json({
  "shard_dir": "fleet",
  "merged_store": "fleet/merged.store",
  "run_id": 42,
  "workers": 2,
  "complete": false,
  "planned_cells": 4,
  "checkpointed_cells": 1,
  "wall_s": 0.75,
  "throughput_cells_per_s": 1.3333333333333333,
  "worker_reports": [
    {"slot": 0, "pid": 101, "reported": true, "exit_code": -1, "term_signal": 0, "rows_claimed": 1, "cells_done": 1, "cells_skipped": 0, "fresh_simulations": 8, "store_hits": 0, "steals": 0, "recoveries": 0, "lease_expiries": 0, "wall_s": 0.5},
    {"slot": 1, "pid": 102, "reported": false, "exit_code": -1, "term_signal": 9, "rows_claimed": 0, "cells_done": 0, "cells_skipped": 0, "fresh_simulations": 0, "store_hits": 0, "steals": 0, "recoveries": 0, "lease_expiries": 0, "wall_s": 0}
  ],
  "merge": {"evals": 0, "cells": 0, "frames": 0, "duplicate_evals": 0, "superseded_cells": 0, "clean": true, "shards": []},
  "totals": {"rows_claimed": 1, "cells_done": 1, "cells_skipped": 0, "fresh_simulations": 8, "store_hits": 0, "steals": 0, "recoveries": 0, "lease_expiries": 0}
}
)json");
}

TEST(Snapshot, PinnedJsonPrintsShortestRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("dse.simulations").add(3);
  reg.gauge("x.sum").set(0.1 + 0.2);
  reg.gauge("x.tenth").set(0.1);
  reg.histogram("milp.solve_s").observe(0.1 + 0.2);
  std::ostringstream os;
  reg.snapshot().write_json(os);
  EXPECT_EQ(os.str(),
            R"({"counters": {"dse.simulations": 3}, )"
            R"("gauges": {"x.sum": 0.30000000000000004, "x.tenth": 0.1}, )"
            R"("histograms": {"milp.solve_s": {"count": 1, )"
            R"("sum": 0.30000000000000004, "min": 0.30000000000000004, )"
            R"("max": 0.30000000000000004, "mean": 0.30000000000000004}}})");
}

}  // namespace
