/// \file fsm_function.hpp
/// Classic FSM-based SC function units (Brown & Card 2001): a saturating
/// up/down counter whose state thresholds realize nonlinear functions of a
/// bipolar stream - stochastic tanh ("stanh") and a bounded exponential
/// ("sexp").
///
/// These are standard SC library blocks the paper's circuits compose with.
/// Caveat (verified in tests/func_test.cpp): the Brown-Card analysis
/// assumes i.i.d. Bernoulli input bits.  Low-discrepancy streams (VDC,
/// Sobol) are maximally *anti*-autocorrelated - at p = 0.5 a VDC stream
/// alternates 1,0,1,0 deterministically, which parks the counter at the
/// threshold and saturates the output.  Feed these units LFSR- or
/// mt19937-generated streams, or re-randomize with a shuffle buffer first
/// (one more place the paper's decorrelator earns its keep).

#pragma once

#include <cstdint>

#include "bitstream/bitstream.hpp"

namespace sc::func {

/// Saturating up/down counter FSM with `states` states (even).
/// Input 1 counts up, input 0 counts down, clamped to [0, states-1].
class SaturatingCounter {
 public:
  /// Throws std::invalid_argument unless `states` is even and >= 2.
  explicit SaturatingCounter(unsigned states);

  /// Pure step function: the state after consuming `up` from `state`.
  /// Word paths build the function units' transition tables from it.
  static unsigned transition(unsigned states, unsigned state, bool up) {
    if (up) return state + 1 < states ? state + 1 : state;
    return state > 0 ? state - 1 : state;
  }

  /// Consumes one input bit, returns the new state.
  unsigned step(bool up) { return state_ = transition(states_, state_, up); }

  [[nodiscard]] unsigned state() const { return state_; }
  /// Moves the counter to `state` (< states()), so word paths can
  /// advance it themselves.
  void set_state(unsigned state) { state_ = state; }
  [[nodiscard]] unsigned states() const { return states_; }
  void reset();

 private:
  unsigned states_;
  unsigned state_;
};

/// Stochastic tanh: output 1 iff the counter sits in the upper half.
/// For a bipolar input v, the output's bipolar value approximates
/// tanh((states/2) * v)  (Brown & Card).
class Stanh {
 public:
  explicit Stanh(unsigned states) : counter_(states) {}
  bool step(bool in) { return output(counter_.step(in)); }
  /// Output bit of the counter state a step lands in.
  [[nodiscard]] bool output(unsigned state) const {
    return state >= counter_.states() / 2;
  }
  [[nodiscard]] SaturatingCounter& counter() { return counter_; }
  [[nodiscard]] const SaturatingCounter& counter() const { return counter_; }
  void reset() { counter_.reset(); }

 private:
  SaturatingCounter counter_;
};

/// Whole-stream stanh.
Bitstream stanh(const Bitstream& x, unsigned states);

/// Stochastic exponential: output 0 only in the top `g` states, giving
/// p(out) ~ exp(-2 g v) for bipolar v > 0 (Brown & Card's sexp).
class Sexp {
 public:
  /// Throws std::invalid_argument for an invalid state count (see
  /// SaturatingCounter) or g > states.
  Sexp(unsigned states, unsigned g);
  bool step(bool in) { return output(counter_.step(in)); }
  /// Output bit of the counter state a step lands in.
  [[nodiscard]] bool output(unsigned state) const {
    return state < counter_.states() - g_;
  }
  [[nodiscard]] SaturatingCounter& counter() { return counter_; }
  [[nodiscard]] const SaturatingCounter& counter() const { return counter_; }
  void reset() { counter_.reset(); }

 private:
  SaturatingCounter counter_;
  unsigned g_;
};

/// Whole-stream sexp.
Bitstream sexp(const Bitstream& x, unsigned states, unsigned g);

/// Brown–Card analytic target of the stanh unit: tanh((states/2) * v) for
/// a bipolar input v in [-1, 1].  Reference semantics for error
/// measurement (the FSM approximates this; the approximation error is part
/// of the unit, not of the executor).
double stanh_value(double v, unsigned states);

/// Analytic target of the sexp unit: exp(-2 g v) for bipolar v > 0,
/// saturating at 1 for v <= 0 (Brown & Card), clamped to [0, 1].
double sexp_value(double v, unsigned states, unsigned g);

}  // namespace sc::func
