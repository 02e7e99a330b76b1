/// \file sobol.hpp
/// Sobol low-discrepancy sequence (gray-code construction, Joe-Kuo
/// direction numbers for the first dimensions).
///
/// Liu & Han (DATE 2017), cited by the paper, show Sobol sequences make
/// energy-efficient SC number sources.  Dimension 1 is the plain
/// bit-reversal (Van der Corput) sequence; higher dimensions use primitive-
/// polynomial direction vectors and are mutually low-discrepancy, so two
/// different dimensions give nearly uncorrelated SNs.

#pragma once

#include <array>
#include <cstdint>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Gray-code Sobol sequence generator for a single dimension.
class Sobol final : public RandomSource {
 public:
  static constexpr unsigned kMaxDimension = 12;
  static constexpr unsigned kDirectionBits = 32;

  /// \param width     output width in bits (1..32); the top `width` bits of
  ///                  the 32-bit Sobol state are emitted
  /// \param dimension Sobol dimension in [1, kMaxDimension]
  /// \throws std::invalid_argument if either lies outside its range
  explicit Sobol(unsigned width, unsigned dimension = 1);

  std::uint32_t next() override;
  void fill(std::uint32_t* out, std::size_t n) override;
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override;
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] unsigned dimension() const { return dimension_; }

 private:
  unsigned width_;
  unsigned dimension_;
  std::array<std::uint32_t, kDirectionBits> v_{};  // direction vectors
  std::uint32_t state_ = 0;
  std::uint64_t index_ = 0;
};

}  // namespace sc::rng
