/// \file lfsr.hpp
/// Maximal-length Fibonacci linear-feedback shift register.
///
/// The paper notes LFSRs are the traditional compact SC random source but
/// that different seeds / rotations are needed to keep streams uncorrelated.
/// This implementation supports widths 3..32 with known maximal-period tap
/// sets (period 2^w - 1; the all-zero state is unreachable).  The emitted
/// value is the full register contents, optionally bit-rotated so that many
/// decorrelated outputs can be drawn from one register (the standard
/// amortization trick the paper describes).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Fibonacci LFSR over GF(2) with maximal-period taps.
///
/// Word API: an LFSR's state orbit is a pure cycle (the update is linear
/// and invertible), so once a consumer has demanded about one period of
/// values the register memoizes the whole period and serves the word-level
/// calls (fill_compare / fill_compare_trace / fill_indices) by replaying
/// precomputed rings — packed comparator bits, reduced address bytes —
/// word-at-a-time instead of re-deriving each value.  Replay is exact:
/// ring contents are recorded from next() itself, and the register state
/// is kept in lockstep with the ring position (any interleaved next() or
/// reset() just resynchronizes by state lookup).  Rings engage for widths
/// up to 16 (at most 2^16 - 1 entries); wider registers and cold starts
/// use the generic block-fill defaults.
class Lfsr final : public RandomSource {
 public:
  /// \param width    register width in bits (3..32; others throw
  ///                 std::invalid_argument)
  /// \param seed     initial state; must be nonzero in the low `width` bits
  ///                 (0 is remapped to 1, the conventional safe default)
  /// \param rotation output rotation in bits (models tapping the register at
  ///                 a different bit offset to obtain a decorrelated copy)
  explicit Lfsr(unsigned width, std::uint32_t seed = 1, unsigned rotation = 0);
  Lfsr(const Lfsr& other);
  ~Lfsr() override;

  std::uint32_t next() override;
  void fill(std::uint32_t* out, std::size_t n) override;
  void fill_compare(std::uint64_t* words, std::size_t nbits,
                    std::uint64_t level) override;
  void fill_compare_trace(std::uint64_t* words, const std::uint16_t* thresh,
                          std::size_t nbits) override;
  void fill_indices(std::uint8_t* out, std::size_t n,
                    std::uint32_t bound) override;
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override { state_ = seed_; }
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override;
  [[nodiscard]] std::string name() const override;

  /// Feedback tap mask (XOR of tapped bits feeds bit width-1).
  [[nodiscard]] std::uint32_t taps() const { return taps_; }
  /// Current register state (for tests).
  [[nodiscard]] std::uint32_t state() const { return state_; }

  /// Maximal-period tap mask for a given width (3..32; others throw
  /// std::invalid_argument).
  static std::uint32_t maximal_taps(unsigned width);

 private:
  struct Ring;

  /// Emitted value for a register state (output rotation applied).
  [[nodiscard]] std::uint32_t emit(std::uint32_t state) const {
    if (rotation_ == 0) return state;
    return ((state >> rotation_) | (state << (width_ - rotation_))) & mask_;
  }
  /// Register state that emits `value` (inverse of emit()).
  [[nodiscard]] std::uint32_t unemit(std::uint32_t value) const {
    if (rotation_ == 0) return value;
    return ((value << rotation_) | (value >> (width_ - rotation_))) & mask_;
  }

  /// True once the period ring is built; accumulates demand and builds it
  /// lazily after about one period of word-API values has been requested
  /// (so short-stream consumers never pay the construction).
  bool ring_ready(std::size_t demand);
  void build_ring();
  /// Points the ring cursor at the current register state (cheap when
  /// nothing stepped the register since the last word-API call).
  bool sync_ring_pos();
  /// Moves the cursor n values forward and the register with it.
  void advance_ring(std::size_t n);

  unsigned width_;
  unsigned rotation_;
  std::uint32_t taps_;
  std::uint32_t seed_;
  std::uint32_t state_;
  std::uint32_t mask_;

  std::unique_ptr<Ring> ring_;
  std::uint64_t word_demand_ = 0;
  bool ring_failed_ = false;
  std::size_t ring_pos_ = 0;
  std::uint32_t ring_pos_state_ = 0;
  bool ring_pos_valid_ = false;
};

}  // namespace sc::rng
