#include "rng/sobol.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sc::rng {
namespace {

/// Joe-Kuo (new-joe-kuo-6) primitive polynomial data for dimensions 2..12.
/// s = polynomial degree, a = encoded interior coefficients, m = initial
/// odd direction integers m_1..m_s.  Dimension 1 is the degenerate
/// bit-reversal sequence handled separately.
struct JoeKuoEntry {
  unsigned s;
  std::uint32_t a;
  std::array<std::uint32_t, 8> m;
};

constexpr std::array<JoeKuoEntry, 11> kJoeKuo = {{
    {1, 0, {1}},                    // dim 2
    {2, 1, {1, 3}},                 // dim 3
    {3, 1, {1, 3, 1}},              // dim 4
    {3, 2, {1, 1, 1}},              // dim 5
    {4, 1, {1, 1, 3, 3}},           // dim 6
    {4, 4, {1, 3, 5, 13}},          // dim 7
    {5, 2, {1, 1, 5, 5, 17}},       // dim 8
    {5, 4, {1, 1, 5, 5, 5}},        // dim 9
    {5, 7, {1, 1, 7, 11, 19}},      // dim 10
    {6, 2, {1, 1, 5, 1, 1, 1}},     // dim 11
    {6, 13, {1, 1, 1, 3, 11, 17}},  // dim 12
}};

}  // namespace

Sobol::Sobol(unsigned width, unsigned dimension)
    : width_(checked_width("rng::Sobol", width, 1, 32)),
      dimension_(dimension) {
  // Dimensions past 1 index kJoeKuo[dimension - 2].
  if (dimension < 1 || dimension > kMaxDimension) {
    throw std::invalid_argument("rng::Sobol: dimension " +
                                std::to_string(dimension) + " is outside 1.." +
                                std::to_string(kMaxDimension));
  }

  if (dimension == 1) {
    // First Sobol dimension: v_k = 2^(32-k), i.e. bit reversal.
    for (unsigned k = 0; k < kDirectionBits; ++k) {
      v_[k] = 1u << (kDirectionBits - 1 - k);
    }
  } else {
    const JoeKuoEntry& e = kJoeKuo[dimension - 2];
    const unsigned s = e.s;
    for (unsigned k = 0; k < kDirectionBits; ++k) {
      if (k < s) {
        v_[k] = e.m[k] << (kDirectionBits - 1 - k);
      } else {
        std::uint32_t value = v_[k - s] ^ (v_[k - s] >> s);
        for (unsigned i = 1; i < s; ++i) {
          if ((e.a >> (s - 1 - i)) & 1u) value ^= v_[k - i];
        }
        v_[k] = value;
      }
    }
  }
}

std::uint32_t Sobol::next() {
  const std::uint32_t out = state_ >> (kDirectionBits - width_);
  // Gray-code update: flip with the direction vector indexed by the
  // position of the lowest zero... equivalently lowest set bit of index+1.
  const unsigned c =
      static_cast<unsigned>(std::countr_zero(~index_));  // lowest 0 of index
  state_ ^= v_[c];
  ++index_;
  return out;
}

void Sobol::fill(std::uint32_t* out, std::size_t n) {
  const unsigned shift = kDirectionBits - width_;
  std::uint32_t s = state_;
  std::uint64_t idx = index_;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s >> shift;
    const unsigned c = static_cast<unsigned>(std::countr_zero(~idx));
    s ^= v_[c];
    ++idx;
  }
  state_ = s;
  index_ = idx;
}

void Sobol::reset() {
  state_ = 0;
  index_ = 0;
}

std::unique_ptr<RandomSource> Sobol::clone() const {
  return std::make_unique<Sobol>(*this);
}

std::string Sobol::name() const {
  std::ostringstream os;
  os << "sobol.d" << dimension_ << "." << width_;
  return os.str();
}

}  // namespace sc::rng
