/// \file shuffle_buffer.hpp
/// The paper's shuffle buffer (Fig. 4b): a small randomly addressed bit
/// memory that scrambles the temporal order of a stream.
///
/// Each cycle an auxiliary RNG draws r in [0, D]:
///   r <  D : emit buffer[r], store the incoming bit at slot r
///   r == D : pass the incoming bit straight through
/// Reordering bits never changes their count, so the stream value is
/// preserved except for bits resident in the buffer at stream end.  To
/// cancel that residual bias the buffer is initialized half 1s / half 0s
/// (paper §III-C): on average as many 1s leave the initial buffer as get
/// stuck in the final one.
///
/// Unlike an isolator (fixed delay, order preserved) the shuffle buffer
/// permutes bits across a window of roughly D cycles, which is what lets it
/// break correlation rather than just shift phase.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pair_transform.hpp"
#include "rng/random_source.hpp"

namespace sc::core {

/// Randomly addressed bit buffer (single stream).
class ShuffleBuffer final : public StreamTransform {
 public:
  /// \param depth   number of storage slots D (>= 1; 0 throws
  ///                std::invalid_argument)
  /// \param source  auxiliary address source; owned.  Its value is reduced
  ///                modulo (D+1), so any width >= ceil(log2(D+1)) works.
  ShuffleBuffer(std::size_t depth, rng::RandomSourcePtr source);

  bool step(bool in) override;
  /// Word path (depth <= 64): address draws block-filled and pre-reduced
  /// by RandomSource::fill_indices, whole words through the SIMD shim's
  /// slot-class shuffle (simd::shuffle_words).  Deeper buffers step every
  /// cycle.
  void process(Word* x, std::size_t bits) override;
  void reset() override;
  /// 1s currently resident in the buffer.
  [[nodiscard]] unsigned saved_ones() const override;

  [[nodiscard]] std::size_t depth() const { return depth_; }

 private:
  void initialize_slots();

  std::size_t depth_;
  // Slot s is bit s % 64 of word s / 64: up to depth 64 this is the
  // one-word slot mask simd::shuffle_words advances.
  std::vector<std::uint64_t> slots_;
  rng::RandomSourcePtr source_;
};

}  // namespace sc::core
