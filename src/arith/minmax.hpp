/// \file minmax.hpp
/// Naive and correlation-agnostic SC maximum/minimum baselines
/// (paper Table III comparison points).
///
/// * or_max / and_min: single-gate designs that are exact only at SCC = +1
///   (Alaghi & Hayes ICCD 2013).  At lower correlation OR overshoots the max
///   and AND undershoots the min - the inaccuracy the paper's synchronizer-
///   based designs (core/ops.hpp) remove.
/// * ca_max / ca_min: correlation-agnostic counter-based designs in the
///   style of SC-DCNN's max-pooling unit (paper ref [12]): a binary
///   up/down counter tracks which operand has seen more 1s and steers that
///   operand to the output.  Accurate for any correlation, but needs a
///   log2(N)-bit counter - the area/power the paper's Table III charges it.

#pragma once

#include <cstdint>

#include "bitstream/bitstream.hpp"

namespace sc::arith {

/// max(pX, pY) via a single OR gate.  Exact only at SCC = +1; value
/// overshoots otherwise (output = pX + pY - p_overlap).
Bitstream or_max(const Bitstream& x, const Bitstream& y);

/// min(pX, pY) via a single AND gate.  Exact only at SCC = +1.
Bitstream and_min(const Bitstream& x, const Bitstream& y);

/// Per-cycle correlation-agnostic maximum (counter-steered selection).
class CaMax {
 public:
  bool step(bool x, bool y) {
    diff_ += static_cast<int>(x) - static_cast<int>(y);
    return diff_ >= 0 ? x : y;
  }
  void reset() { diff_ = 0; }

 private:
  std::int64_t diff_ = 0;  // running count(x) - count(y)
};

/// Per-cycle correlation-agnostic minimum (counter-steered selection).
class CaMin {
 public:
  bool step(bool x, bool y) {
    diff_ += static_cast<int>(x) - static_cast<int>(y);
    return diff_ >= 0 ? y : x;
  }
  void reset() { diff_ = 0; }

 private:
  std::int64_t diff_ = 0;
};

/// Whole-stream correlation-agnostic max; accurate for any SCC.  Unequal
/// lengths throw std::invalid_argument, here and in ca_min.
Bitstream ca_max(const Bitstream& x, const Bitstream& y);

/// Whole-stream correlation-agnostic min; accurate for any SCC.
Bitstream ca_min(const Bitstream& x, const Bitstream& y);

}  // namespace sc::arith
