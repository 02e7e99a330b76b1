/// \file sd_converter.hpp
/// Stochastic-to-digital (S/D) converter: the counter of paper Fig. 2f.
///
/// The S/D converter sums the 1s of an incoming stream into a binary
/// register; after N cycles the register holds B = p * N.  The whole-stream
/// helpers are the functional equivalents of the per-cycle form.

#pragma once

#include <cstdint>

#include "bitstream/bitstream.hpp"

namespace sc::convert {

/// Per-cycle accumulating counter.
class SdConverter {
 public:
  /// Consumes one stream bit.
  void step(bool bit) {
    count_ += bit ? 1u : 0u;
    ++cycles_;
  }

  /// Number of 1s seen so far (the binary result B).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Number of bits consumed.
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  /// Recovered unipolar value B / cycles (0 before any input).
  [[nodiscard]] double value() const {
    return cycles_ == 0
               ? 0.0
               : static_cast<double>(count_) / static_cast<double>(cycles_);
  }

  void reset() {
    count_ = 0;
    cycles_ = 0;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t cycles_ = 0;
};

/// Whole-stream S/D conversion: the binary level (count of 1s).
std::uint64_t to_binary(const Bitstream& stream);

}  // namespace sc::convert
