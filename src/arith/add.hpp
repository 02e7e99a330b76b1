/// \file add.hpp
/// SC addition variants: the MUX scaled adder (Fig. 2a), the OR saturating
/// adder (Fig. 2b), and the deterministic correlation-agnostic "toggle"
/// adder used as the CA-adder baseline (paper §II-B, ref [9]).

#pragma once

#include "bitstream/bitstream.hpp"
#include "rng/random_source.hpp"

namespace sc::arith {

/// Scaled add via MUX: pZ = 0.5 (pX + pY).  `sel` must be a pR = 0.5 stream
/// uncorrelated with both operands.
Bitstream scaled_add(const Bitstream& x, const Bitstream& y,
                     const Bitstream& sel);

/// Scaled add drawing the select stream from `sel_source` (one bit per cycle,
/// taken as the source's MSB so any width works).
Bitstream scaled_add(const Bitstream& x, const Bitstream& y,
                     rng::RandomSource& sel_source);

/// Saturating add via OR: pZ = min(1, pX + pY), exact at SCC(x, y) = -1.
/// With insufficient negative correlation the result under-approximates the
/// saturating sum (overlapping 1s merge).  See core::desync_saturating_add
/// for the paper's improved version.
Bitstream saturating_add(const Bitstream& x, const Bitstream& y);

/// Deterministic correlation-agnostic scaled adder ("toggle" adder).
///
/// out = (x AND y) OR (toggle AND (x XOR y)): both-1 cycles always emit 1,
/// both-0 cycles emit 0, and differing cycles alternate emitting 1/0 via a
/// T flip-flop.  The output ones count is a(x,y) + ceil/floor-half of the
/// differing positions, i.e. 0.5(pX+pY) within one LSB *regardless of the
/// operand correlation* - no random select stream needed.  This is the
/// style of correlation-insensitive adder the paper's CA-adder comparison
/// point ([9]) uses; it costs a flip-flop plus a few gates, which the cost
/// model reflects (5-10x the MUX adder).
Bitstream toggle_add(const Bitstream& x, const Bitstream& y);

/// Per-cycle form of toggle_add.
class ToggleAdder {
 public:
  /// Result of one transition: the T flip-flop's next value and the output.
  struct Transition {
    bool toggle;
    bool out;
  };

  /// Pure step function: (toggle, x, y) -> (toggle', sum bit).  Word
  /// paths build the adder's transition table from it.
  static Transition transition(bool toggle, bool x, bool y) {
    if (x == y) return {toggle, x};
    return {!toggle, !toggle};
  }

  bool step(bool x, bool y) {
    const Transition t = transition(toggle_, x, y);
    toggle_ = t.toggle;
    return t.out;
  }
  void reset() { toggle_ = false; }

  /// The flip-flop, exposed so word paths can advance it themselves.
  [[nodiscard]] bool state() const { return toggle_; }
  void set_state(bool toggle) { toggle_ = toggle; }

 private:
  bool toggle_ = false;  // starts emitting 1 on the first differing cycle
};

}  // namespace sc::arith
