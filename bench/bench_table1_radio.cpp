// Reproduces paper Table 1: TI CC2650 radio specifications, plus the
// quantities the models derive from it (Tpkt, per-level analytic node
// powers and lifetimes for the 4-node star/mesh reference topologies).
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "model/power.hpp"

int main() {
  using namespace hi;
  model::Scenario scenario;
  const model::RadioChip& chip = scenario.chip;

  std::cout << "=== Table 1: " << chip.name << " radio specifications ===\n\n";
  TextTable spec;
  spec.set_header({"parameter", "value"});
  spec.add_row({"fc", fmt_double(chip.fc_hz / 1e9, 1) + " GHz"});
  spec.add_row({"BR", fmt_double(chip.bit_rate_bps / 1e3, 0) + " kbps"});
  spec.add_row({"RxdBm", fmt_double(chip.rx_dbm, 0) + " dBm"});
  spec.add_row({"RxmW", fmt_double(chip.rx_mw, 1) + " mW"});
  spec.print(std::cout);

  std::cout << "\nTx modes:\n";
  TextTable tx;
  tx.set_header({"mode", "TxdBm", "TxmW"});
  for (int k = 0; k < chip.num_tx_levels(); ++k) {
    tx.add_row({std::string("p").append(std::to_string(k + 1)),
                fmt_double(chip.tx_levels[static_cast<std::size_t>(k)].dbm, 0),
                fmt_double(chip.tx_levels[static_cast<std::size_t>(k)].mw, 2)});
  }
  tx.print(std::cout);

  const model::Topology t4 = model::Topology::from_locations({0, 1, 3, 5});
  const model::NetworkConfig ref =
      scenario.make_config(t4, 2, model::MacProtocol::kCsma,
                           model::RoutingProtocol::kStar);
  std::cout << "\nDerived quantities (Sec. 2.1 / 4.1):\n";
  TextTable derived;
  derived.set_header({"quantity", "value"});
  derived.add_row({"Tpkt = 8L/BR (L=100 B)",
                   fmt_double(model::packet_duration_s(ref.radio, ref.app) *
                                  1e6,
                              2) +
                       " us"});
  derived.add_row({"CR2032 energy", fmt_double(ref.battery_j, 0) + " J"});
  derived.add_row(
      {"NreTx (N=4,5,6)",
       fmt_double(model::mesh_retx_bound(4), 0) + " / " +
           fmt_double(model::mesh_retx_bound(5), 0) + " / " +
           fmt_double(model::mesh_retx_bound(6), 0)});
  derived.print(std::cout);

  std::cout << "\nAnalytic node power P̄ (Eq. 9) and lifetime for N=4:\n";
  TextTable power;
  power.set_header({"Tx level", "star P̄ (mW)", "star NLT (d)",
                    "mesh P̄ (mW)", "mesh NLT (d)"});
  for (int k = 0; k < chip.num_tx_levels(); ++k) {
    const auto star = scenario.make_config(t4, k, model::MacProtocol::kCsma,
                                           model::RoutingProtocol::kStar);
    const auto mesh = scenario.make_config(t4, k, model::MacProtocol::kCsma,
                                           model::RoutingProtocol::kMesh);
    power.add_row(
        {fmt_double(star.radio.tx_dbm, 0) + " dBm",
         fmt_double(model::node_power_mw(star), 3),
         fmt_double(seconds_to_days(model::analytic_nlt_s(star)), 1),
         fmt_double(model::node_power_mw(mesh), 3),
         fmt_double(seconds_to_days(model::analytic_nlt_s(mesh)), 1)});
  }
  power.print(std::cout);
  return 0;
}
