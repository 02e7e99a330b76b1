#include "rng/random_source.hpp"

#include <stdexcept>
#include <string>

#include "common/simd.hpp"

namespace sc::rng {
namespace {

/// Values drawn per inner block by the default word-API implementations
/// (16 KiB of stack scratch, L1-resident).
constexpr std::size_t kBlock = 4096;

}  // namespace

void RandomSource::fill_compare(std::uint64_t* words, std::size_t nbits,
                                std::uint64_t level) {
  std::uint32_t tmp[kBlock];
  for (std::size_t i = 0; i < nbits; i += kBlock) {
    const std::size_t n = nbits - i < kBlock ? nbits - i : kBlock;
    fill(tmp, n);
    simd::pack_compare_lt(tmp, n, level, words + i / 64);
  }
}

void RandomSource::fill_compare_trace(std::uint64_t* words,
                                      const std::uint16_t* thresh,
                                      std::size_t nbits) {
  std::uint32_t tmp[kBlock];
  for (std::size_t i = 0; i < nbits; i += kBlock) {
    const std::size_t n = nbits - i < kBlock ? nbits - i : kBlock;
    fill(tmp, n);
    simd::pack_compare_trace(tmp, thresh + i, n, words + i / 64);
  }
}

void RandomSource::fill_indices(std::uint8_t* out, std::size_t n,
                                std::uint32_t bound) {
  std::uint32_t tmp[kBlock];
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t take = n - i < kBlock ? n - i : kBlock;
    fill(tmp, take);
    simd::mod_bytes(tmp, take, bound, range(), out + i);
  }
}

unsigned checked_width(const char* generator, unsigned width,
                       unsigned min_width, unsigned max_width) {
  if (width < min_width || width > max_width) {
    throw std::invalid_argument(std::string(generator) + ": width " +
                                std::to_string(width) + " is outside " +
                                std::to_string(min_width) + ".." +
                                std::to_string(max_width));
  }
  return width;
}

}  // namespace sc::rng
