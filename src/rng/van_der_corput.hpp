/// \file van_der_corput.hpp
/// Base-2 Van der Corput low-discrepancy sequence.
///
/// The w-bit VDC sequence is the bit-reversal of a w-bit counter: it visits
/// every value in [0, 2^w) exactly once per period with optimally even
/// coverage of prefixes.  The paper (following Alaghi & Hayes DATE'14) uses
/// VDC as a high-quality deterministic SN generator: a comparator SNG driven
/// by VDC produces streams whose value is *exact* for every level.

#pragma once

#include <cstdint>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Bit-reversed-counter Van der Corput sequence.
class VanDerCorput final : public RandomSource {
 public:
  /// \param width  output width in bits (1..32)
  /// \param offset starting counter value (phase of the sequence)
  /// \throws std::invalid_argument if width lies outside 1..32
  explicit VanDerCorput(unsigned width, std::uint32_t offset = 0);

  std::uint32_t next() override;
  void fill(std::uint32_t* out, std::size_t n) override;
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override { counter_ = offset_; }
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override;
  [[nodiscard]] std::string name() const override;

  /// Reverses the low `width` bits of v.
  static std::uint32_t reverse_bits(std::uint32_t v, unsigned width);

 private:
  unsigned width_;
  std::uint32_t offset_;
  std::uint32_t counter_;
  std::uint32_t mask_;
};

}  // namespace sc::rng
