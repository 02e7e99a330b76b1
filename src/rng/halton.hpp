/// \file halton.hpp
/// Base-b Halton (radical inverse) low-discrepancy sequence.
///
/// The radical inverse of counter t in base b mirrors the base-b digits of t
/// about the radix point; scaled to w bits it yields a low-discrepancy
/// integer sequence.  Base 2 coincides with the Van der Corput sequence.
/// The paper's Table II/III experiments use a base-3 Halton sequence as the
/// second, uncorrelated-by-construction source next to base-2 VDC.

#pragma once

#include <cstdint>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Radical-inverse sequence in an arbitrary integer base >= 2.
class Halton final : public RandomSource {
 public:
  /// \param width  output width in bits (1..31)
  /// \param base   radix of the radical inverse (>= 2); prime bases give the
  ///               classic Halton sequence
  /// \param offset starting counter value (phase)
  /// \throws std::invalid_argument if width or base lies outside its range
  explicit Halton(unsigned width, unsigned base = 3, std::uint32_t offset = 0);

  std::uint32_t next() override;
  void fill(std::uint32_t* out, std::size_t n) override;
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override { counter_ = offset_; }
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] unsigned base() const { return base_; }

  /// Radical inverse of t in the given base, as a fraction in [0, 1).
  static double radical_inverse(std::uint64_t t, unsigned base);

 private:
  unsigned width_;
  unsigned base_;
  std::uint32_t offset_;
  std::uint64_t counter_;
};

}  // namespace sc::rng
