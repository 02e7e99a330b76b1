/// \file random_source.hpp
/// Interface for the number sequences that drive stochastic-number
/// generators, shuffle buffers, and MUX select streams.
///
/// A RandomSource emits one w-bit integer per clock cycle, uniformly covering
/// [0, 2^w).  The paper's evaluation uses four families:
///  * LFSR            - classic pseudo-random shift register (sc::rng::Lfsr)
///  * Van der Corput  - base-2 low-discrepancy sequence (bit-reversed counter)
///  * Halton          - base-b low-discrepancy sequence (radical inverse)
///  * Sobol           - direction-vector low-discrepancy sequence
/// plus deterministic counters and mt19937 for tests.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace sc::rng {

/// Abstract per-cycle integer sequence in [0, 2^width()).
class RandomSource {
 public:
  virtual ~RandomSource() = default;

  /// Next value of the sequence.  Advances internal state.
  virtual std::uint32_t next() = 0;

  /// Fills out[0..n) with the next n values — identical to n next() calls.
  /// The default loops over next(); sources with cheap update rules
  /// override it with a non-virtual loop so block consumers (the word
  /// paths) pay one virtual call per block instead of one per cycle.
  virtual void fill(std::uint32_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = next();
  }

  // Word API: the RNG hot paths of the word-parallel kernels.  Each call
  // is sequence-identical to drawing nbits/n values with next() and
  // post-processing them; the defaults (random_source.cpp) block-fill and
  // route through the SIMD shim, and rng::Lfsr overrides the index and
  // trace calls with copies from its width's shared orbit tables.  The
  // packed outputs place bit i at words[i/64] bit i%64; callers pass
  // zeroed destinations (bits are OR-ed in) and word-aligned starts.

  /// ORs comparator-SNG bits into words: bit i = (value_i < level), with
  /// level in [0, 2^width()] (64-bit so full scale does not wrap).
  virtual void fill_compare(std::uint64_t* words, std::size_t nbits,
                            std::uint64_t level);

  /// ORs regeneration bits into words: bit i = (int32(value_i) <
  /// thresh[i]).  thresh values must be < 2^15 (TFM estimates at the
  /// precisions the word kernels accept).
  virtual void fill_compare_trace(std::uint64_t* words,
                                  const std::uint16_t* thresh,
                                  std::size_t nbits);

  /// Fills out[0..n) with value_i % bound, narrowed to bytes; bound in
  /// [1, 255] (shuffle-buffer address draws).
  virtual void fill_indices(std::uint8_t* out, std::size_t n,
                            std::uint32_t bound);

  /// Output width in bits (1..32).  next() < 2^width().
  [[nodiscard]] virtual unsigned width() const = 0;

  /// Restarts the sequence from its initial state.
  virtual void reset() = 0;

  /// Deep copy preserving current state.
  [[nodiscard]] virtual std::unique_ptr<RandomSource> clone() const = 0;

  /// Human-readable identification, e.g. "lfsr8(seed=0x1)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Range of the source: 2^width().
  [[nodiscard]] std::uint64_t range() const { return std::uint64_t{1} << width(); }

  /// Next value scaled to [0, 1).
  double next_unit() {
    return static_cast<double>(next()) / static_cast<double>(range());
  }
};

/// Owning handle used across module boundaries.
using RandomSourcePtr = std::unique_ptr<RandomSource>;

/// Returns `width` if it lies in [min_width, max_width]; otherwise throws
/// std::invalid_argument naming `generator`.  Every generator checks its
/// width with it before deriving a mask or a shift from it.
unsigned checked_width(const char* generator, unsigned width,
                       unsigned min_width, unsigned max_width);

}  // namespace sc::rng
