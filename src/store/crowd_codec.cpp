#include "store/crowd_codec.hpp"

#include <utility>

#include "common/json_string.hpp"
#include "store/json.hpp"

namespace hi::store {

Digest crowd_fingerprint(const model::CrowdScenario& sc) {
  ByteWriter w;
  w.put_string("hi.crowd.v1");
  write_config(w, sc.cfg);
  w.put_i32(sc.bodies);
  // Canonical over the effective positions: grid and equivalent explicit
  // placements hash identically, and relabeling-invariance (the crowd
  // simulator sorts bodies canonically) means position *order* is the
  // only thing left to pin — positions() already fixes it.
  for (const model::BodyPlacement& p : sc.positions()) {
    w.put_f64(p.x_m);
    w.put_f64(p.y_m);
  }
  w.put_f64(sc.inter.pl0_db);
  w.put_f64(sc.inter.d0_m);
  w.put_f64(sc.inter.exponent);
  w.put_f64(sc.inter.shadow_db);
  w.put_f64(sc.inter.sigma_db);
  w.put_f64(sc.inter.tau_s);
  w.put_f64(sc.inter.min_distance_m);
  return sha256(w.bytes());
}

Digest crowd_point_fingerprint(const model::CrowdScenario& sc,
                               const net::SimParams& sim, int runs) {
  ByteWriter w;
  w.put_string("hi.crowd.point.v1");
  w.put_digest(crowd_fingerprint(sc));
  w.put_f64(sim.duration_s);
  w.put_f64(sim.gen_guard_s);
  w.put_u64(sim.seed);
  w.put_u64(sim.channel_seed);
  w.put_f64(sim.capture_db);
  w.put_f64(sim.csma.turnaround_s);
  w.put_f64(sim.csma.backoff_max_s);
  w.put_f64(sim.csma.persistent_poll_s);
  w.put_i32(runs);
  return sha256(w.bytes());
}

// --- JSON ---------------------------------------------------------------

namespace {

using detail::JsonParser;
using detail::JsonValue;
using detail::ObjectReader;

}  // namespace

std::string crowd_scenario_to_json(const model::CrowdScenario& sc) {
  const model::NetworkConfig& c = sc.cfg;
  JsonWriter w;
  w.object(JsonWriter::kBlock).field("format", "hi-crowd-scenario-v1");
  w.key("config").object(JsonWriter::kBlock);
  w.field("topology_mask", c.topology.mask());
  w.field("fc_hz", c.radio.fc_hz).field("bit_rate_bps", c.radio.bit_rate_bps);
  w.field("tx_dbm", c.radio.tx_dbm).field("tx_mw", c.radio.tx_mw);
  w.field("rx_dbm", c.radio.rx_dbm).field("rx_mw", c.radio.rx_mw);
  w.field("tx_level_index", c.tx_level_index);
  w.field("mac", c.mac.protocol == model::MacProtocol::kTdma ? "tdma" : "csma");
  w.field("mac_buffer_packets", c.mac.buffer_packets);
  w.field("csma_persistent",
          c.mac.access_mode == model::CsmaAccessMode::kPersistent);
  w.field("tdma_slot_s", c.mac.slot_s);
  const bool mesh = c.routing.protocol == model::RoutingProtocol::kMesh;
  w.field("routing", mesh ? "mesh" : "star");
  w.field("coordinator", c.routing.coordinator);
  w.field("max_hops", c.routing.max_hops);
  w.field("baseline_mw", c.app.baseline_mw);
  w.field("packet_bytes", c.app.packet_bytes);
  w.field("throughput_pps", c.app.throughput_pps);
  w.field("battery_j", c.battery_j).end();
  w.field("bodies", sc.bodies).field("spacing_m", sc.spacing_m);
  w.field("cols", sc.cols).key("placement").array(JsonWriter::kInline);
  for (const model::BodyPlacement& p : sc.placement) {
    w.object(JsonWriter::kInline).field("x_m", p.x_m).field("y_m", p.y_m).end();
  }
  w.end().key("inter").object(JsonWriter::kInline);
  w.field("pl0_db", sc.inter.pl0_db).field("d0_m", sc.inter.d0_m);
  w.field("exponent", sc.inter.exponent).field("shadow_db", sc.inter.shadow_db);
  w.field("sigma_db", sc.inter.sigma_db).field("tau_s", sc.inter.tau_s);
  w.field("min_distance_m", sc.inter.min_distance_m).end();
  return w.end().take();
}

std::optional<model::CrowdScenario> crowd_scenario_from_json(
    std::string_view json, std::string* error) {
  std::optional<JsonValue> root = JsonParser(json).parse(error);
  if (!root) return std::nullopt;
  ObjectReader b(error);
  if (root->kind != JsonValue::Kind::kObject) {
    b.fail("top-level JSON value must be an object");
    return std::nullopt;
  }
  b.check_keys(*root, {"format", "config", "bodies", "spacing_m", "cols",
                       "placement", "inter"});
  if (b.str(*root, "format") != "hi-crowd-scenario-v1" && !b.failed()) {
    b.fail("unsupported format (want \"hi-crowd-scenario-v1\")");
  }

  model::CrowdScenario sc;
  if (const JsonValue* cfg = b.require(*root, "config"); cfg != nullptr) {
    b.check_keys(*cfg,
                 {"topology_mask", "fc_hz", "bit_rate_bps", "tx_dbm", "tx_mw",
                  "rx_dbm", "rx_mw", "tx_level_index", "mac",
                  "mac_buffer_packets", "csma_persistent", "tdma_slot_s",
                  "routing", "coordinator", "max_hops", "baseline_mw",
                  "packet_bytes", "throughput_pps", "battery_j"});
    model::NetworkConfig& c = sc.cfg;
    const int mask = b.integer(*cfg, "topology_mask");
    if (!b.failed() && (mask < 0 || mask > 0xFFFF)) {
      b.fail("topology_mask out of range");
    }
    c.topology =
        model::Topology::from_mask(static_cast<std::uint16_t>(mask));
    c.radio.fc_hz = b.num(*cfg, "fc_hz");
    c.radio.bit_rate_bps = b.num(*cfg, "bit_rate_bps");
    c.radio.tx_dbm = b.num(*cfg, "tx_dbm");
    c.radio.tx_mw = b.num(*cfg, "tx_mw");
    c.radio.rx_dbm = b.num(*cfg, "rx_dbm");
    c.radio.rx_mw = b.num(*cfg, "rx_mw");
    c.tx_level_index = b.integer(*cfg, "tx_level_index");
    const std::string mac = b.str(*cfg, "mac");
    if (!b.failed() && mac != "csma" && mac != "tdma") {
      b.fail("field 'mac' must be \"csma\" or \"tdma\"");
    }
    c.mac.protocol =
        mac == "tdma" ? model::MacProtocol::kTdma : model::MacProtocol::kCsma;
    c.mac.buffer_packets = b.integer(*cfg, "mac_buffer_packets");
    if (const JsonValue* p = b.require(*cfg, "csma_persistent");
        p != nullptr) {
      if (p->kind != JsonValue::Kind::kBool) {
        b.fail("field 'csma_persistent' must be a boolean");
      } else {
        c.mac.access_mode = p->boolean
                                ? model::CsmaAccessMode::kPersistent
                                : model::CsmaAccessMode::kNonPersistent;
      }
    }
    c.mac.slot_s = b.num(*cfg, "tdma_slot_s");
    const std::string routing = b.str(*cfg, "routing");
    if (!b.failed() && routing != "star" && routing != "mesh") {
      b.fail("field 'routing' must be \"star\" or \"mesh\"");
    }
    c.routing.protocol = routing == "mesh" ? model::RoutingProtocol::kMesh
                                           : model::RoutingProtocol::kStar;
    c.routing.coordinator = b.integer(*cfg, "coordinator");
    c.routing.max_hops = b.integer(*cfg, "max_hops");
    c.app.baseline_mw = b.num(*cfg, "baseline_mw");
    c.app.packet_bytes = b.integer(*cfg, "packet_bytes");
    c.app.throughput_pps = b.num(*cfg, "throughput_pps");
    c.battery_j = b.num(*cfg, "battery_j");
  }
  sc.bodies = b.integer(*root, "bodies");
  sc.spacing_m = b.num(*root, "spacing_m");
  sc.cols = b.integer(*root, "cols");
  for (const JsonValue& p : b.array(*root, "placement")) {
    b.check_keys(p, {"x_m", "y_m"});
    model::BodyPlacement bp;
    bp.x_m = b.num(p, "x_m");
    bp.y_m = b.num(p, "y_m");
    sc.placement.push_back(bp);
  }
  if (const JsonValue* in = b.require(*root, "inter"); in != nullptr) {
    b.check_keys(*in, {"pl0_db", "d0_m", "exponent", "shadow_db", "sigma_db",
                       "tau_s", "min_distance_m"});
    sc.inter.pl0_db = b.num(*in, "pl0_db");
    sc.inter.d0_m = b.num(*in, "d0_m");
    sc.inter.exponent = b.num(*in, "exponent");
    sc.inter.shadow_db = b.num(*in, "shadow_db");
    sc.inter.sigma_db = b.num(*in, "sigma_db");
    sc.inter.tau_s = b.num(*in, "tau_s");
    sc.inter.min_distance_m = b.num(*in, "min_distance_m");
  }
  if (b.failed()) return std::nullopt;
  return sc;
}

}  // namespace hi::store
