/// \file mt_source.hpp
/// mt19937-backed random source, for software baselines and property tests.
///
/// Not a hardware-realistic SC source (a Mersenne Twister is enormous next
/// to an LFSR); used as the "ideal i.i.d." reference when measuring how far
/// the hardware sequences deviate from true randomness.

#pragma once

#include <random>
#include <sstream>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Uniform w-bit integers from std::mt19937.
class Mt19937Source final : public RandomSource {
 public:
  /// \throws std::invalid_argument if width lies outside 1..32
  explicit Mt19937Source(unsigned width, std::uint32_t seed = 1)
      : width_(checked_width("rng::Mt19937Source", width, 1, 32)),
        seed_(seed),
        gen_(seed) {}

  std::uint32_t next() override {
    const std::uint32_t raw = gen_();
    return width_ == 32 ? raw : (raw & ((1u << width_) - 1u));
  }
  void fill(std::uint32_t* out, std::size_t n) override {
    const std::uint32_t mask = width_ == 32 ? ~0u : (1u << width_) - 1u;
    for (std::size_t i = 0; i < n; ++i) out[i] = gen_() & mask;
  }
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override { gen_.seed(seed_); }
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override {
    return std::make_unique<Mt19937Source>(*this);
  }
  [[nodiscard]] std::string name() const override {
    std::ostringstream os;
    os << "mt19937." << width_ << "(seed=" << seed_ << ")";
    return os.str();
  }

 private:
  unsigned width_;
  std::uint32_t seed_;
  std::mt19937 gen_;
};

}  // namespace sc::rng
