/// \file sng.hpp
/// Digital-to-stochastic (D/S) converter: the comparator-based stochastic
/// number generator of paper Fig. 2g.
///
/// Each cycle the SNG compares its RNG value r in [0, 2^w) against the
/// binary level x in [0, 2^w] and emits the bit (r < x).  Over one full RNG
/// period the stream value is x / 2^w; with a low-discrepancy source (VDC,
/// Sobol) the value is exact for *every* prefix-aligned length.
///
/// Correlation between two SNG outputs is inherited from their sources: the
/// same source gives SCC = +1, independent sources give SCC near 0.

#pragma once

#include <cstdint>

#include "bitstream/bitstream.hpp"
#include "rng/random_source.hpp"

namespace sc::convert {

/// Comparator SNG bound to an owned random source.
class Sng {
 public:
  /// Takes ownership of the source (null throws std::invalid_argument).
  /// Stream length N is 2^source->width() unless overridden per call.
  explicit Sng(rng::RandomSourcePtr source);

  /// Natural stream length: 2^width (one full source period).  64-bit
  /// because a 32-bit-wide source's period, 2^32, does not fit uint32 (a
  /// narrower counter silently wrapped to 0 and generated all-zero
  /// streams).
  [[nodiscard]] std::uint64_t natural_length() const { return natural_length_; }

  /// Emits one bit for level x in [0, natural_length()].
  bool step(std::uint64_t level) { return source_->next() < level; }

  /// Generates a length-n stream for integer level x in [0, natural_length()].
  /// Does not reset the source first (streams generated back-to-back continue
  /// the sequence); call reset() for a fresh period.
  Bitstream generate(std::uint64_t level, std::size_t n);

  /// Generates a stream for a real value p in [0,1], quantized to the
  /// nearest representable level of natural_length().
  Bitstream generate_value(double p, std::size_t n);

  /// Restarts the underlying source.
  void reset() { source_->reset(); }

  const rng::RandomSource& source() const { return *source_; }
  rng::RandomSource& source() { return *source_; }

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t natural_length_;
};

}  // namespace sc::convert
