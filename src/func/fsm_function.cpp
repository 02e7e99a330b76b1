#include "func/fsm_function.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sc::func {

SaturatingCounter::SaturatingCounter(unsigned states)
    : states_(states), state_(states / 2) {
  if (states < 2 || states % 2 != 0) {
    throw std::invalid_argument(
        "SaturatingCounter: state count must be even and >= 2 (got " +
        std::to_string(states) + ")");
  }
}

void SaturatingCounter::reset() { state_ = states_ / 2; }

Bitstream stanh(const Bitstream& x, unsigned states) {
  Stanh unit(states);
  Bitstream out;
  out.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(unit.step(x.get(i)));
  }
  return out;
}

double stanh_value(double v, unsigned states) {
  return std::tanh(static_cast<double>(states) / 2.0 * v);
}

double sexp_value(double v, unsigned states, unsigned g) {
  (void)states;  // the state count shapes the approximation, not the target
  if (v <= 0.0) return 1.0;
  return std::clamp(std::exp(-2.0 * static_cast<double>(g) * v), 0.0, 1.0);
}

Sexp::Sexp(unsigned states, unsigned g) : counter_(states), g_(g) {
  if (g > states) {
    throw std::invalid_argument("Sexp: g = " + std::to_string(g) +
                                " exceeds the state count " +
                                std::to_string(states));
  }
}

Bitstream sexp(const Bitstream& x, unsigned states, unsigned g) {
  Sexp unit(states, g);
  Bitstream out;
  out.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(unit.step(x.get(i)));
  }
  return out;
}

}  // namespace sc::func
