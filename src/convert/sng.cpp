#include "convert/sng.hpp"

#include <stdexcept>
#include <string>

#include "bitstream/encoding.hpp"

namespace sc::convert {

Sng::Sng(rng::RandomSourcePtr source) : source_(std::move(source)) {
  if (source_ == nullptr) {
    throw std::invalid_argument("convert::Sng: null source");
  }
  // Width can be 32, so the period must be computed (and kept) in 64
  // bits: a uint32 natural length wraps to 0 and every comparator test
  // `next() < 0` fails, yielding all-zero streams.
  natural_length_ = std::uint64_t{1} << source_->width();
}

Bitstream Sng::generate(std::uint64_t level, std::size_t n) {
  if (level > natural_length_) {
    throw std::invalid_argument("convert::Sng::generate: level " +
                                std::to_string(level) + " above " +
                                std::to_string(natural_length_));
  }
  Bitstream out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(source_->next() < level);
  }
  return out;
}

Bitstream Sng::generate_value(double p, std::size_t n) {
  return generate(unipolar_level64(p, natural_length_), n);
}

}  // namespace sc::convert
