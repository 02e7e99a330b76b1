#include "rng/halton.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sc::rng {

Halton::Halton(unsigned width, unsigned base, std::uint32_t offset)
    : width_(checked_width("rng::Halton", width, 1, 31)),
      base_(base),
      offset_(offset),
      counter_(offset) {
  // Base 0 divides by zero in radical_inverse, and base 1 never leaves its
  // loop.
  if (base < 2) {
    throw std::invalid_argument("rng::Halton: base " + std::to_string(base) +
                                " is below 2");
  }
}

double Halton::radical_inverse(std::uint64_t t, unsigned base) {
  double scale = 1.0;
  double result = 0.0;
  while (t > 0) {
    scale /= static_cast<double>(base);
    result += scale * static_cast<double>(t % base);
    t /= base;
  }
  return result;
}

std::uint32_t Halton::next() {
  const double r = radical_inverse(counter_, base_);
  ++counter_;
  const auto scaled = static_cast<std::uint32_t>(
      r * static_cast<double>(std::uint64_t{1} << width_));
  // Guard against r * 2^w == 2^w from floating rounding.
  const std::uint32_t max = (width_ == 32 ? ~0u : (1u << width_) - 1u);
  return scaled > max ? max : scaled;
}

void Halton::fill(std::uint32_t* out, std::size_t n) {
  // Same float pipeline as next() (radical_inverse is in this TU and
  // inlines), so the block path is bit-identical to n next() calls.
  const double scale_w = static_cast<double>(std::uint64_t{1} << width_);
  const std::uint32_t max = (width_ == 32 ? ~0u : (1u << width_) - 1u);
  const std::uint64_t t0 = counter_;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = radical_inverse(t0 + i, base_);
    const auto scaled = static_cast<std::uint32_t>(r * scale_w);
    out[i] = scaled > max ? max : scaled;
  }
  counter_ = t0 + n;
}

std::unique_ptr<RandomSource> Halton::clone() const {
  return std::make_unique<Halton>(*this);
}

std::string Halton::name() const {
  std::ostringstream os;
  os << "halton" << base_ << "." << width_;
  if (offset_ != 0) os << "(offset=" << offset_ << ")";
  return os.str();
}

}  // namespace sc::rng
