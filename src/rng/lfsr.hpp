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
/// Block API: a maximal-period register visits every nonzero state on one
/// fixed cycle, so the seed only picks where on it a register starts.  For
/// widths up to 16 that cycle is stored once per process (one immutable
/// orbit table per width, built on first use).  fill() copies the window
/// of it that starts at the current state, with the output rotation
/// applied; fill_indices() (and fill_compare_trace() up to 8 bits) copies
/// the same window of a shared byte table of value % bound per (width,
/// rotation, bound).  Every window is exactly the sequence next() would
/// step through, and the register state moves to the window's end, so
/// block calls and next() interleave freely.  Wider registers step next().
class Lfsr final : public RandomSource {
 public:
  /// \param width    register width in bits (3..32; others throw
  ///                 std::invalid_argument)
  /// \param seed     initial state; must be nonzero in the low `width` bits
  ///                 (0 is remapped to 1, the conventional safe default)
  /// \param rotation output rotation in bits (models tapping the register at
  ///                 a different bit offset to obtain a decorrelated copy)
  explicit Lfsr(unsigned width, std::uint32_t seed = 1, unsigned rotation = 0);

  std::uint32_t next() override;
  void fill(std::uint32_t* out, std::size_t n) override;
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
  unsigned width_;
  unsigned rotation_;
  std::uint32_t taps_;
  std::uint32_t seed_;
  std::uint32_t state_;
  std::uint32_t mask_;

  /// Shared byte table of the last bound fill_indices() served, so
  /// concurrent registers do not meet at the table lock on every block.
  const std::uint8_t* bytes_ = nullptr;
  std::uint32_t bytes_bound_ = 0;
};

}  // namespace sc::rng
