#include "hw/designs.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace sc::hw {

namespace {

/// A zero depth or state count describes no circuit; pricing one anyway
/// would report a plausible area for hardware that cannot exist.
void require_positive(std::size_t value, const char* what) {
  if (value == 0) {
    throw std::invalid_argument(std::string(what) + " must be >= 1");
  }
}

}  // namespace

unsigned state_bits(std::size_t states) {
  require_positive(states, "hw::state_bits: states");
  return states <= 1 ? 1u : static_cast<unsigned>(std::bit_width(states - 1));
}

Netlist or_gate_netlist() {
  Netlist n("or");
  n.add(Cell::kOr2);
  return n;
}

Netlist and_gate_netlist() {
  Netlist n("and");
  n.add(Cell::kAnd2);
  return n;
}

Netlist xor_gate_netlist() {
  Netlist n("xor");
  n.add(Cell::kXor2);
  return n;
}

Netlist xnor_gate_netlist() {
  Netlist n("xnor");
  n.add(Cell::kXnor2);
  return n;
}

Netlist mux_adder_netlist() {
  Netlist n("mux-add");
  n.add(Cell::kMux2);
  return n;
}

Netlist toggle_adder_netlist() {
  // T flip-flop (DFF + INV feedback) steering a MUX on differing inputs.
  Netlist n("toggle-add");
  n.add(Cell::kDff).add(Cell::kInv).add(Cell::kXor2).add(Cell::kMux2);
  return n;
}

Netlist cordiv_netlist() {
  // Quotient-bit hold register + output select.
  Netlist n("cordiv");
  n.add(Cell::kDff).add(Cell::kMux2).add(Cell::kAnd2);
  return n;
}

namespace {

/// Shared FSM expansion: `bits` state flops plus next-state/output logic
/// that grows linearly with the state register width (what 2-level
/// synthesis of these small symmetric FSMs yields in practice).
Netlist fsm_netlist(std::string label, unsigned bits, unsigned extra_logic) {
  Netlist n(std::move(label));
  n.add(Cell::kDff, bits);
  n.add(Cell::kAnd2, 2 + bits);
  n.add(Cell::kOr2, 1 + bits);
  n.add(Cell::kInv, 1 + bits);
  n.add(Cell::kXor2, 1);
  n.add(Cell::kNand2, 2 * bits + extra_logic);
  return n;
}

/// Offset tracking for flush mode: a down-counter of `offset_bits` plus a
/// saved-count comparator (paper §III-B calls this "tremendously expensive"
/// next to the base FSM; the numbers here show why).
Netlist flush_tracker(unsigned offset_bits) {
  Netlist n("flush");
  n.add(Cell::kDff, offset_bits);
  n.add(Cell::kHalfAdder, offset_bits);
  n.add(Cell::kNand2, offset_bits);
  n.add(Cell::kOr2, offset_bits / 2 + 1);
  return n;
}

}  // namespace

Netlist synchronizer_netlist(unsigned depth, bool flush,
                             unsigned offset_bits) {
  require_positive(depth, "hw::synchronizer_netlist: depth");
  const unsigned bits = state_bits(2 * static_cast<std::size_t>(depth) + 1);
  Netlist n = fsm_netlist(
      "sync(D=" + std::to_string(depth) + (flush ? ",flush)" : ")"), bits, 0);
  if (flush) n += flush_tracker(offset_bits);
  return n;
}

Netlist desynchronizer_netlist(unsigned depth, bool flush,
                               unsigned offset_bits) {
  require_positive(depth, "hw::desynchronizer_netlist: depth");
  const unsigned bits = state_bits(2 * static_cast<std::size_t>(depth) + 2);
  // The desynchronizer's transition structure (alternating donor side) needs
  // a little more output logic than the synchronizer.
  Netlist n = fsm_netlist(
      "desync(D=" + std::to_string(depth) + (flush ? ",flush)" : ")"), bits,
      3);
  if (flush) n += flush_tracker(offset_bits);
  return n;
}

Netlist shuffle_buffer_netlist(std::size_t depth) {
  require_positive(depth, "hw::shuffle_buffer_netlist: depth");
  Netlist n("shuffle(D=" + std::to_string(depth) + ")");
  n.add(Cell::kDffEn, depth);                       // bit slots
  n.add(Cell::kAnd2, depth);                        // address decode enables
  n.add(Cell::kMux2, depth);                        // output mux tree + pass
  n.add(Cell::kInv, state_bits(depth + 1));         // address complement
  return n;
}

Netlist decorrelator_netlist(std::size_t depth) {
  Netlist n = shuffle_buffer_netlist(depth) * 2;
  n.set_label("decorrelator(D=" + std::to_string(depth) + ")");
  return n;
}

Netlist isolator_netlist(std::size_t delay) {
  Netlist n("isolator(d=" + std::to_string(delay) + ")");
  n.add(Cell::kDff, delay);
  return n;
}

Netlist tfm_netlist(unsigned precision) {
  Netlist n("tfm(k=" + std::to_string(precision) + ")");
  n.add(Cell::kDff, precision + 1);        // EMA register
  n.add(Cell::kFullAdder, precision);      // EMA update adder/subtractor
  n += comparator_netlist(precision);      // regeneration comparator
  return n;
}

Netlist lfsr_netlist(unsigned width) {
  Netlist n("lfsr" + std::to_string(width));
  n.add(Cell::kDff, width);
  n.add(Cell::kXor2, 3);  // feedback taps (<= 4 taps for maximal LFSRs)
  return n;
}

Netlist comparator_netlist(unsigned width) {
  // Ripple magnitude comparator: per bit XNOR (equality) + AND (chain).
  Netlist n("cmp" + std::to_string(width));
  n.add(Cell::kXnor2, width);
  n.add(Cell::kAnd2, width);
  return n;
}

Netlist sng_netlist(unsigned width, bool include_rng) {
  Netlist n("sng" + std::to_string(width) +
            (include_rng ? "" : "(shared-rng)"));
  if (include_rng) n += lfsr_netlist(width);
  n += comparator_netlist(width);
  return n;
}

Netlist sd_converter_netlist(unsigned bits) {
  // Ones counter: register + increment chain.
  Netlist n("sd" + std::to_string(bits));
  n.add(Cell::kDff, bits);
  n.add(Cell::kHalfAdder, bits);
  return n;
}

Netlist regenerator_netlist(unsigned bits, bool include_rng) {
  // S/D counter + holding register (the counted level must persist while
  // the next stream is counted) + D/S comparator.
  Netlist n = sd_converter_netlist(bits);
  n.add(Cell::kDff, bits);
  n += comparator_netlist(bits);
  if (include_rng) n += lfsr_netlist(bits);
  n.set_label("regen" + std::to_string(bits) +
              (include_rng ? "(private-rng)" : ""));
  return n;
}

Netlist sync_max_netlist(unsigned depth) {
  Netlist n = synchronizer_netlist(depth) + or_gate_netlist();
  n.set_label("sync-max(D=" + std::to_string(depth) + ")");
  return n;
}

Netlist sync_min_netlist(unsigned depth) {
  Netlist n = synchronizer_netlist(depth) + and_gate_netlist();
  n.set_label("sync-min(D=" + std::to_string(depth) + ")");
  return n;
}

Netlist desync_sat_add_netlist(unsigned depth) {
  Netlist n = desynchronizer_netlist(depth) + or_gate_netlist();
  n.set_label("desync-satadd(D=" + std::to_string(depth) + ")");
  return n;
}

Netlist fsm_unit_netlist(std::size_t states) {
  // Saturating up/down counter + threshold decode on the state register.
  const unsigned bits = state_bits(states);
  Netlist n =
      fsm_netlist("fsm-unit(S=" + std::to_string(states) + ")", bits, 0);
  n.add(Cell::kAnd2, bits);  // threshold comparator
  return n;
}

Netlist mux_tree_netlist(unsigned inputs, unsigned width) {
  Netlist n("mux-tree(" + std::to_string(inputs) + ":1)");
  // inputs-1 two-input muxes plus the weighted select decode off the
  // shared RNG's low bits.
  n.add(Cell::kMux2, inputs >= 1 ? inputs - 1 : 0);
  n.add(Cell::kAnd2, state_bits(inputs));
  n.add(Cell::kInv, state_bits(inputs));
  (void)width;  // select RNG charged by the owner (amortized per tile)
  return n;
}

Netlist roberts_cross_netlist() {
  Netlist n("roberts-cross");
  n.add(Cell::kXor2, 2);  // the two diagonal gradients
  n.add(Cell::kMux2, 1);  // gradient scaled add
  return n;
}

Netlist resc_netlist(std::size_t degree, unsigned width) {
  // Copy popcount adder tree, one comparator SNG per coefficient stream
  // (their RNG amortized to one LFSR), and the coefficient select tree.
  Netlist n("resc(n=" + std::to_string(degree) + ")");
  n.add(Cell::kFullAdder, degree >= 1 ? degree - 1 : 0);
  for (std::size_t i = 0; i <= degree; ++i) n += comparator_netlist(width);
  n += lfsr_netlist(width);
  n.add(Cell::kMux2, degree);  // (degree+1)-to-1 coefficient select
  return n;
}

Netlist ca_max_netlist(unsigned counter_bits) {
  // Up/down counter tracking count(x) - count(y), sign bit steers a mux.
  Netlist n("ca-max(b=" + std::to_string(counter_bits) + ")");
  n.add(Cell::kDff, counter_bits);
  n.add(Cell::kFullAdder, counter_bits);
  n.add(Cell::kMux2, 1);
  n.add(Cell::kInv, 1);
  return n;
}

}  // namespace sc::hw
