/// \file designs.hpp
/// Structural netlists for every design evaluated in the paper.
///
/// Each function expands a circuit into standard-cell counts the way a
/// synthesis tool would: FSM state bits become flip-flops plus next-state /
/// output logic proportional to the state count; memories become
/// enable-flops plus decode and mux cells; counters become flip-flop +
/// adder chains.  Composite designs (sync-max, regenerator, the image
/// pipeline in sc::img) are sums of these.

#pragma once

#include <cstddef>

#include "hw/netlist.hpp"

namespace sc::hw {

// --- single-gate SC operators (paper Fig. 2 / Table III baselines) -------

Netlist or_gate_netlist();        ///< OR-max / OR saturating add
Netlist and_gate_netlist();       ///< AND-min / AND multiply
Netlist xor_gate_netlist();       ///< XOR subtractor
Netlist xnor_gate_netlist();      ///< bipolar multiplier
Netlist mux_adder_netlist();      ///< MUX scaled adder (select gen excluded)
Netlist toggle_adder_netlist();   ///< deterministic CA adder (ref [9] class)
Netlist cordiv_netlist();         ///< correlated divider (ref [6])

// --- correlation manipulating circuits (paper §III) ----------------------

/// Synchronizer FSM with save depth D; 2D+1 states.  Here and in the
/// desynchronizer, shuffle buffer and decorrelator below, D = 0 throws
/// std::invalid_argument.
/// \param flush        adds the stream-offset tracking hardware of §III-B
/// \param offset_bits  width of the offset counter when flush is enabled
Netlist synchronizer_netlist(unsigned depth, bool flush = false,
                             unsigned offset_bits = 8);

/// Desynchronizer FSM with save depth D; 2D+2 states (alternation).
Netlist desynchronizer_netlist(unsigned depth, bool flush = false,
                               unsigned offset_bits = 8);

/// Shuffle buffer with D storage slots (paper Fig. 4b).
Netlist shuffle_buffer_netlist(std::size_t depth);

/// Decorrelator: two shuffle buffers (paper Fig. 4a).  Aux RNGs are charged
/// separately (they are amortized across many decorrelators in practice);
/// add lfsr_netlist() explicitly when accounting unshared RNGs.
Netlist decorrelator_netlist(std::size_t depth);

/// Isolator: `delay` flip-flops on one stream (ref [10]).
Netlist isolator_netlist(std::size_t delay);

/// Tracking forecast memory: EMA register + adder + regeneration
/// comparator (ref [11]).  Aux RNG charged separately.
Netlist tfm_netlist(unsigned precision);

// --- converters and sources (paper Fig. 2f/g) -----------------------------

Netlist lfsr_netlist(unsigned width);
Netlist comparator_netlist(unsigned width);
/// D/S converter; include_rng=false models an SNG sharing an external RNG.
Netlist sng_netlist(unsigned width, bool include_rng = true);
/// S/D converter: `bits`-wide ones counter.
Netlist sd_converter_netlist(unsigned bits);
/// Regeneration unit per stream: S/D counter + holding register + D/S
/// comparator.  The D/S RNG is shared across the bus; pass include_rng=true
/// to charge a private one.
Netlist regenerator_netlist(unsigned bits, bool include_rng = false);

// --- improved operators (paper Fig. 5 / Table III) ------------------------

Netlist sync_max_netlist(unsigned depth = 1);
Netlist sync_min_netlist(unsigned depth = 1);
Netlist desync_sat_add_netlist(unsigned depth = 1);
/// Correlation-agnostic max (ref [12] class): up/down counter + steering.
Netlist ca_max_netlist(unsigned counter_bits = 16);

// --- registry composite operators (graph/registry.cpp) --------------------

/// Saturating up/down counter FSM function unit (Brown–Card stanh/sexp):
/// state register plus threshold decode.
Netlist fsm_unit_netlist(std::size_t states);

/// `inputs`-to-1 MUX tree plus its select decode (the §IV Gaussian-blur
/// stage); the select RNG is charged via lfsr_netlist by the caller that
/// owns it (it is amortized across a tile in the real accelerator).
Netlist mux_tree_netlist(unsigned inputs, unsigned width);

/// Roberts-cross edge stage: two diagonal XORs + gradient MUX (select RNG
/// charged separately).
Netlist roberts_cross_netlist();

/// ReSC/Bernstein unit of the given degree: copy popcount adder tree,
/// n+1 coefficient SNG comparators (coefficient RNGs amortized: one LFSR),
/// and the coefficient-select mux tree.
Netlist resc_netlist(std::size_t degree, unsigned width);

/// Number of FSM state bits for a state count (ceil(log2(states))); a
/// count of 0 throws std::invalid_argument.
unsigned state_bits(std::size_t states);

}  // namespace sc::hw
