#include "model/config.hpp"

#include <bit>
#include <sstream>

#include "common/assert.hpp"
#include "common/table.hpp"

namespace hi::model {

const char* to_string(MacProtocol p) {
  return p == MacProtocol::kCsma ? "CSMA" : "TDMA";
}

const char* to_string(RoutingProtocol p) {
  return p == RoutingProtocol::kStar ? "Star" : "Mesh";
}

Topology Topology::from_locations(const std::vector<int>& locs) {
  Topology t;
  for (int loc : locs) {
    HI_REQUIRE(!t.has(loc), "duplicate location " << loc);
    t.set(loc, true);
  }
  return t;
}

Topology Topology::from_mask(std::uint16_t mask) {
  HI_REQUIRE(mask < (1u << channel::kNumLocations),
             "mask " << mask << " has bits beyond location "
                     << channel::kNumLocations - 1);
  Topology t;
  t.mask_ = mask;
  return t;
}

void Topology::set(int loc, bool present) {
  HI_REQUIRE(loc >= 0 && loc < channel::kNumLocations,
             "bad location " << loc);
  if (present) {
    mask_ = static_cast<std::uint16_t>(mask_ | (1u << loc));
  } else {
    mask_ = static_cast<std::uint16_t>(mask_ & ~(1u << loc));
  }
}

bool Topology::has(int loc) const {
  HI_REQUIRE(loc >= 0 && loc < channel::kNumLocations,
             "bad location " << loc);
  return (mask_ >> loc) & 1u;
}

int Topology::count() const { return std::popcount(mask_); }

std::vector<int> Topology::locations() const {
  std::vector<int> out;
  for (int i = 0; i < channel::kNumLocations; ++i) {
    if (has(i)) {
      out.push_back(i);
    }
  }
  return out;
}

std::string Topology::to_string() const {
  std::ostringstream oss;
  oss << '[';
  bool first = true;
  for (int loc : locations()) {
    if (!first) oss << ',';
    first = false;
    oss << loc;
  }
  oss << ']';
  return oss.str();
}

std::string NetworkConfig::label() const {
  std::ostringstream oss;
  oss << topology.to_string() << ", " << model::to_string(routing.protocol)
      << ", " << model::to_string(mac.protocol) << ", "
      << fmt_double(radio.tx_dbm, 0) << "dBm";
  return oss.str();
}

namespace {

/// FNV-1a accumulation helpers for the design key.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
}

void mix_double(std::uint64_t& h, double v) {
  mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t NetworkConfig::design_key() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  mix(h, topology.mask());
  mix(h, static_cast<std::uint64_t>(tx_level_index));
  mix_double(h, radio.fc_hz);
  mix_double(h, radio.bit_rate_bps);
  mix_double(h, radio.tx_dbm);
  mix_double(h, radio.tx_mw);
  mix_double(h, radio.rx_dbm);
  mix_double(h, radio.rx_mw);
  mix(h, mac.protocol == MacProtocol::kTdma);
  mix(h, static_cast<std::uint64_t>(mac.buffer_packets));
  mix(h, mac.access_mode == CsmaAccessMode::kPersistent);
  mix_double(h, mac.slot_s);
  mix(h, routing.protocol == RoutingProtocol::kMesh);
  mix(h, static_cast<std::uint64_t>(routing.coordinator));
  mix(h, static_cast<std::uint64_t>(routing.max_hops));
  mix_double(h, app.baseline_mw);
  mix(h, static_cast<std::uint64_t>(app.packet_bytes));
  mix_double(h, app.throughput_pps);
  mix_double(h, battery_j);
  return h;
}

}  // namespace hi::model
