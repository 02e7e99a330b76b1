/// \file apc.hpp
/// Accumulative parallel counter (APC), Ting & Hayes 2014 (paper ref [3]).
///
/// An APC adds k input bits per cycle into a binary accumulator.  Unlike the
/// MUX adder it loses no precision (the result has full log2(k*N) bits), at
/// the cost of an adder tree.  The paper cites APCs as the higher-precision
/// conversion alternative when quantization error matters.

#pragma once

#include <cstdint>
#include "common/span.hpp"
#include <vector>

#include "bitstream/bitstream.hpp"

namespace sc::convert {

/// Per-cycle accumulative parallel counter over k parallel inputs.
class Apc {
 public:
  explicit Apc(std::size_t inputs) : inputs_(inputs) {}

  /// Adds one cycle's worth of input bits.  bits.size() must equal inputs()
  /// (std::invalid_argument otherwise).
  void step(sc::span<const bool> bits);

  [[nodiscard]] std::size_t inputs() const { return inputs_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// Average of the input values: sum / (inputs * cycles), in [0, 1].
  [[nodiscard]] double mean_value() const;
  /// Scaled sum matching the MUX adder's output convention, but exact.
  [[nodiscard]] double scaled_sum() const { return mean_value(); }

  void reset() {
    sum_ = 0;
    cycles_ = 0;
  }

 private:
  std::size_t inputs_;
  std::uint64_t sum_ = 0;
  std::uint64_t cycles_ = 0;
};

/// Whole-stream APC: exact sum of all 1s across the input streams.
/// All streams must share one length (std::invalid_argument otherwise).
/// Returns sum / (k * N), the exact scaled sum the MUX adder approximates.
double apc_scaled_sum(sc::span<const Bitstream> streams);

}  // namespace sc::convert
