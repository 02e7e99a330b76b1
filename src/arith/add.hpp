/// \file add.hpp
/// SC addition variants: the MUX scaled adder (Fig. 2a) and the §IV
/// Gaussian blur's weighted 9-to-1 MUX tree, the OR saturating adder
/// (Fig. 2b), and the deterministic correlation-agnostic "toggle" adder
/// used as the CA-adder baseline (paper §II-B, ref [9]).

#pragma once

#include <cstddef>
#include <cstdint>

#include "bitstream/bitstream.hpp"
#include "rng/random_source.hpp"

namespace sc::arith {

/// Select decode of the §IV Gaussian blur's 9-to-1 MUX tree: a 4-bit
/// select value r picks window pixel kBlurSelect[r] (3x3, row-major), so
/// each pixel is picked with its binomial weight {1,2,1; 2,4,2; 1,2,1}/16.
inline constexpr std::uint8_t kBlurSelect[16] = {0, 1, 1, 2, 3, 3, 4, 4,
                                                 4, 4, 5, 5, 6, 7, 7, 8};

/// Word form of the blur's select decode over n cycles.  Reduces each
/// select draw to its low 4 bits, in place, then writes window pixel k's
/// pick mask (bit i set iff draw i picks pixel k) to
/// masks[k * stride, k * stride + (n + 63) / 64), for k = 0..8, with tail
/// bits clear.  A blur output word is then the OR over k of (pixel k's
/// word AND mask k's word).
void blur_select_masks(std::uint32_t* select, std::size_t n,
                       Bitstream::Word* masks, std::size_t stride);

/// Scaled add via MUX: pZ = 0.5 (pX + pY).  `sel` must be a pR = 0.5 stream
/// uncorrelated with both operands.
Bitstream scaled_add(const Bitstream& x, const Bitstream& y,
                     const Bitstream& sel);

/// Scaled add drawing the select stream from `sel_source` (one bit per cycle,
/// taken as the source's MSB so any width works).  Unequal operand sizes
/// throw std::invalid_argument before the source is drawn.
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
/// model reflects (5-10x the MUX adder).  Unequal lengths throw
/// std::invalid_argument.
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
