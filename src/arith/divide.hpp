/// \file divide.hpp
/// SC division (paper Fig. 2e): CORDIV-style correlated divider,
/// Chen & Hayes ISVLSI 2016 (paper ref [6]).
///
/// For operands with SCC = +1 and pX <= pY, the quotient stream is formed by
/// passing x when y = 1 and otherwise replaying the most recent quotient bit
/// observed under y = 1 (held in a D flip-flop).  Conditioned on y = 1, x is
/// 1 with probability pX / pY (the subset property of positively correlated
/// streams), so the output value converges to the quotient.

#pragma once

#include "bitstream/bitstream.hpp"

namespace sc::arith {

/// Per-cycle CORDIV divider element.
class Cordiv {
 public:
  /// Result of one transition: the flip-flop's next value and the output.
  struct Transition {
    bool held;
    bool out;
  };

  /// Pure step function: (held, x, y) -> (held', quotient bit).  Word
  /// paths build the divider's transition table from it.
  static Transition transition(bool held, bool x, bool y) {
    return y ? Transition{x, x} : Transition{held, held};
  }

  /// Consumes one (x, y) bit pair, emits one quotient bit.
  bool step(bool x, bool y) {
    const Transition t = transition(held_, x, y);
    held_ = t.held;
    return t.out;
  }
  void reset() { held_ = false; }

  /// The flip-flop, exposed so word paths can advance it themselves.
  [[nodiscard]] bool state() const { return held_; }
  void set_state(bool held) { held_ = held; }

 private:
  bool held_ = false;  // last quotient bit sampled under y = 1
};

/// Whole-stream divide: pZ ~= pX / pY.  Requires SCC(x, y) = +1 and
/// pX <= pY; returns an all-ones-saturating approximation otherwise.
/// Unequal lengths throw std::invalid_argument.
Bitstream divide(const Bitstream& x, const Bitstream& y);

}  // namespace sc::arith
