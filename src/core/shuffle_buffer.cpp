#include "core/shuffle_buffer.hpp"

#include <cassert>
#include <stdexcept>

namespace sc::core {

ShuffleBuffer::ShuffleBuffer(std::size_t depth, rng::RandomSourcePtr source)
    : slots_(depth), source_(std::move(source)) {
  if (depth == 0) {
    throw std::invalid_argument("core::ShuffleBuffer: depth must be >= 1");
  }
  assert(source_ != nullptr);
  initialize_slots();
}

void ShuffleBuffer::initialize_slots() {
  // Half 1s, half 0s (1s in the low slots; the addressing is random so the
  // placement does not matter).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i] = (i < slots_.size() / 2) ? 1 : 0;
  }
}

bool ShuffleBuffer::step(bool in) {
  const std::size_t r =
      static_cast<std::size_t>(source_->next()) % (slots_.size() + 1);
  if (r == slots_.size()) {
    return in;  // pass-through slot
  }
  const bool out = slots_[r] != 0;
  slots_[r] = in ? 1 : 0;
  return out;
}

void ShuffleBuffer::reset() {
  source_->reset();
  initialize_slots();
}

unsigned ShuffleBuffer::saved_ones() const {
  unsigned ones = 0;
  for (char s : slots_) ones += static_cast<unsigned>(s);
  return ones;
}

std::uint64_t ShuffleBuffer::slots_mask() const {
  assert(slots_.size() <= 64);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] != 0) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

void ShuffleBuffer::set_slots_mask(std::uint64_t mask) {
  assert(slots_.size() <= 64);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i] = (mask >> i) & 1u ? 1 : 0;
  }
}

}  // namespace sc::core
