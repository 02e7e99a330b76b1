#include "core/shuffle_buffer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/simd.hpp"

namespace sc::core {

namespace {

/// Deepest buffer simd::shuffle_words advances: its slots fit one word.
constexpr std::size_t kMaxWordDepth = 64;

/// Address draws per fill_indices block: a multiple of 64, so every block
/// starts on a word boundary.
constexpr std::size_t kDrawBlock = 4096;

}  // namespace

ShuffleBuffer::ShuffleBuffer(std::size_t depth, rng::RandomSourcePtr source)
    : depth_(depth),
      slots_(depth / 64 + (depth % 64 != 0 ? 1 : 0)),
      source_(std::move(source)) {
  if (depth == 0) {
    throw std::invalid_argument("core::ShuffleBuffer: depth must be >= 1");
  }
  if (source_ == nullptr) {
    throw std::invalid_argument("core::ShuffleBuffer: null source");
  }
  initialize_slots();
}

void ShuffleBuffer::initialize_slots() {
  // Half 1s, half 0s (1s in the low slots; the addressing is random so the
  // placement does not matter).
  std::fill(slots_.begin(), slots_.end(), std::uint64_t{0});
  for (std::size_t i = 0; i < depth_ / 2; ++i) {
    slots_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

bool ShuffleBuffer::step(bool in) {
  const std::size_t r =
      static_cast<std::size_t>(source_->next()) % (depth_ + 1);
  if (r == depth_) {
    return in;  // pass-through slot
  }
  std::uint64_t& word = slots_[r / 64];
  const std::uint64_t m = std::uint64_t{1} << (r % 64);
  const bool out = (word & m) != 0;
  word = in ? word | m : word & ~m;
  return out;
}

void ShuffleBuffer::process(Word* x, std::size_t bits) {
  if (depth_ > kMaxWordDepth) {
    StreamTransform::process(x, bits);
    return;
  }
  const auto depth = static_cast<unsigned>(depth_);
  std::uint8_t r[kDrawBlock];
  for (std::size_t pos = 0; pos < bits; pos += kDrawBlock) {
    const std::size_t n = std::min(kDrawBlock, bits - pos);
    source_->fill_indices(r, n, depth + 1);
    simd::shuffle_words(x + pos / 64, r, n, depth, slots_.data());
  }
}

void ShuffleBuffer::reset() {
  source_->reset();
  initialize_slots();
}

unsigned ShuffleBuffer::saved_ones() const {
  unsigned ones = 0;
  for (const std::uint64_t word : slots_) {
    ones += static_cast<unsigned>(std::popcount(word));
  }
  return ones;
}

}  // namespace sc::core
