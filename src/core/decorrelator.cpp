#include "core/decorrelator.hpp"

#include <algorithm>

namespace sc::core {

Decorrelator::Decorrelator(std::size_t depth, rng::RandomSourcePtr source_x,
                           rng::RandomSourcePtr source_y)
    : buffer_x_(depth, std::move(source_x)),
      buffer_y_(depth, std::move(source_y)) {}

BitPair Decorrelator::step(bool x, bool y) {
  return BitPair{buffer_x_.step(x), buffer_y_.step(y)};
}

void Decorrelator::process(Word* x, Word* y, std::size_t bits) {
  buffer_x_.process(x, bits);
  buffer_y_.process(y, bits);
}

void Decorrelator::reset() {
  buffer_x_.reset();
  buffer_y_.reset();
}

unsigned Decorrelator::saved_ones() const {
  return buffer_x_.saved_ones() + buffer_y_.saved_ones();
}

DecorrelatorChainLink::DecorrelatorChainLink(std::size_t depth,
                                             rng::RandomSourcePtr source)
    : buffer_(depth, std::move(source)) {}

BitPair DecorrelatorChainLink::step(bool x, bool /*y*/) {
  return BitPair{x, buffer_.step(x)};
}

void DecorrelatorChainLink::process(Word* x, Word* y, std::size_t bits) {
  const std::size_t words = bits / 64;
  std::copy(x, x + words, y);
  if (bits % 64 != 0) {
    const Word low = (Word{1} << (bits % 64)) - 1;
    y[words] = (x[words] & low) | (y[words] & ~low);
  }
  buffer_.process(y, bits);
}

void DecorrelatorChainLink::reset() { buffer_.reset(); }

unsigned DecorrelatorChainLink::saved_ones() const {
  return buffer_.saved_ones();
}

}  // namespace sc::core
