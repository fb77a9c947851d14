// hi-opt: network configuration types (Sec. 2.1 of the paper).
//
// A full design point is the pair (ν, χ): a Topology ν choosing which of
// the M = 10 body locations carry a node, and the layer configuration
// vectors χ = (χrd, χMAC, χrt, χapp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/locations.hpp"

namespace hi::model {

/// MAC protocol choice (χMAC.PMAC).
enum class MacProtocol { kCsma, kTdma };

/// CSMA access mode (χMAC.AM).  The paper's design example uses the
/// non-persistent TunableMAC mode; persistent is provided for ablations.
enum class CsmaAccessMode { kNonPersistent, kPersistent };

/// Routing protocol choice (χrt.Prt): 0 = star, 1 = mesh flooding.
enum class RoutingProtocol { kStar, kMesh };

[[nodiscard]] const char* to_string(MacProtocol p);
[[nodiscard]] const char* to_string(RoutingProtocol p);

/// Radio configuration χrd = (fc, BR, TxdBm, TxmW, RxdBm, RxmW), Eq. (2).
struct RadioConfig {
  double fc_hz = 2.4e9;          ///< carrier frequency
  double bit_rate_bps = 1.024e6; ///< BR
  double tx_dbm = 0.0;           ///< transmitter output power
  double tx_mw = 18.3;           ///< transmitter power consumption
  double rx_dbm = -97.0;         ///< receiver sensitivity
  double rx_mw = 17.7;           ///< receiver power consumption

  friend bool operator==(const RadioConfig&, const RadioConfig&) = default;
};

/// MAC configuration χMAC = (PMAC, BMAC, AM, Tslot).
struct MacConfig {
  MacProtocol protocol = MacProtocol::kCsma;
  int buffer_packets = 16;       ///< BMAC
  CsmaAccessMode access_mode = CsmaAccessMode::kNonPersistent;
  double slot_s = 1e-3;          ///< Tslot (TDMA)

  friend bool operator==(const MacConfig&, const MacConfig&) = default;
};

/// Routing configuration χrt = (Prt, ncoor, Nhops).
struct RoutingConfig {
  RoutingProtocol protocol = RoutingProtocol::kStar;
  int coordinator = 0;           ///< ncoor (star only; a location id)
  int max_hops = 2;              ///< Nhops (mesh only)

  friend bool operator==(const RoutingConfig&, const RoutingConfig&) = default;
};

/// Application configuration χapp = (Pbl, Lpkt, φ).
struct AppConfig {
  double baseline_mw = 0.1;      ///< Pbl = 100 µW
  int packet_bytes = 100;        ///< Lpkt
  double throughput_pps = 10.0;  ///< φ (packets per second per node)

  friend bool operator==(const AppConfig&, const AppConfig&) = default;
};

/// Topology ν = (n0, ..., n9): which locations carry a node.
class Topology {
 public:
  Topology() = default;

  /// Builds from an explicit location list (duplicates rejected).
  static Topology from_locations(const std::vector<int>& locs);

  /// Builds from a bitmask (bit i set <=> location i used).
  static Topology from_mask(std::uint16_t mask);

  /// Adds / removes a location.
  void set(int loc, bool present);

  /// True when location loc carries a node.
  [[nodiscard]] bool has(int loc) const;

  /// Number of nodes N.
  [[nodiscard]] int count() const;

  /// Sorted list of used locations.
  [[nodiscard]] std::vector<int> locations() const;

  /// Bitmask form.
  [[nodiscard]] std::uint16_t mask() const { return mask_; }

  /// Compact rendering, e.g. "[0,1,3,6]".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  std::uint16_t mask_ = 0;
};

/// A full design point (ν, χ) plus the per-node battery energy.
struct NetworkConfig {
  Topology topology;
  RadioConfig radio;
  int tx_level_index = 0;  ///< index into the radio chip's Tx levels
  MacConfig mac;
  RoutingConfig routing;
  AppConfig app;
  double battery_j = 2430.0;  ///< Ebat of a non-coordinator node (CR2032)

  /// Paper-style label, e.g. "[0,1,3,6], Star, CSMA, -10dBm".
  [[nodiscard]] std::string label() const;

  /// Stable identity of the full design point (for caches/dedup): a hash
  /// of the topology mask and tx level plus every parameter that changes
  /// simulation behaviour (radio powers, MAC protocol/buffer/slot,
  /// routing scheme/coordinator/hop limit, application profile).  Two
  /// configs from different scenarios therefore never collide silently.
  [[nodiscard]] std::uint64_t design_key() const;

  /// Exact design-point equality — the ground truth design_key()
  /// approximates; the evaluator cache uses it to reject key collisions.
  friend bool operator==(const NetworkConfig&, const NetworkConfig&) = default;
};

}  // namespace hi::model
