/// \file counter_source.hpp
/// Deterministic ramp sequence 0, 1, ..., 2^w - 1, 0, ...
///
/// A counter-driven comparator SNG emits all of a stream's 1s contiguously
/// ("unary ramp" encoding).  Two counter-generated streams are maximally
/// positively correlated (SCC = +1), which makes this source useful for
/// constructing correlated operands and for testing correlation-sensitive
/// circuits such as the XOR subtractor and CORDIV divider.

#pragma once

#include <sstream>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Wrap-around w-bit up-counter.
class CounterSource final : public RandomSource {
 public:
  /// \throws std::invalid_argument if width lies outside 1..32
  explicit CounterSource(unsigned width, std::uint32_t start = 0)
      : width_(checked_width("rng::CounterSource", width, 1, 32)),
        mask_(width_ == 32 ? ~0u : (1u << width_) - 1u),
        start_(start & mask_),
        state_(start & mask_) {}

  std::uint32_t next() override {
    const std::uint32_t out = state_;
    state_ = (state_ + 1) & mask_;
    return out;
  }
  void fill(std::uint32_t* out, std::size_t n) override {
    std::uint32_t s = state_;
    const std::uint32_t mask = mask_;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = s;
      s = (s + 1) & mask;
    }
    state_ = s;
  }
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override { state_ = start_; }
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override {
    return std::make_unique<CounterSource>(*this);
  }
  [[nodiscard]] std::string name() const override {
    std::ostringstream os;
    os << "counter" << width_;
    if (start_ != 0) os << "(start=" << start_ << ")";
    return os.str();
  }

 private:
  unsigned width_;
  std::uint32_t mask_;
  std::uint32_t start_;
  std::uint32_t state_;
};

}  // namespace sc::rng
