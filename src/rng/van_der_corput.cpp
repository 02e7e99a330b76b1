#include "rng/van_der_corput.hpp"

#include <sstream>

namespace sc::rng {

VanDerCorput::VanDerCorput(unsigned width, std::uint32_t offset)
    : width_(checked_width("rng::VanDerCorput", width, 1, 32)),
      offset_(offset),
      counter_(offset),
      mask_(width_ == 32 ? ~0u : (1u << width_) - 1u) {}

std::uint32_t VanDerCorput::reverse_bits(std::uint32_t v, unsigned width) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < width; ++i) {
    out = (out << 1) | ((v >> i) & 1u);
  }
  return out;
}

std::uint32_t VanDerCorput::next() {
  const std::uint32_t out = reverse_bits(counter_ & mask_, width_);
  ++counter_;
  return out;
}

void VanDerCorput::fill(std::uint32_t* out, std::size_t n) {
  // Note the counter increments unmasked (it only wraps at 2^32), exactly
  // as in next(); the mask applies to the reversed value.
  std::uint32_t c = counter_;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = reverse_bits(c & mask_, width_);
    ++c;
  }
  counter_ = c;
}

std::unique_ptr<RandomSource> VanDerCorput::clone() const {
  return std::make_unique<VanDerCorput>(*this);
}

std::string VanDerCorput::name() const {
  std::ostringstream os;
  os << "vdc" << width_;
  if (offset_ != 0) os << "(offset=" << offset_ << ")";
  return os.str();
}

}  // namespace sc::rng
