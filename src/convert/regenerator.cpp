#include "convert/regenerator.hpp"

#include <algorithm>
#include <bit>

#include "common/simd.hpp"

namespace sc::convert {
namespace {

/// S/D: recovers the binary level of a stream with `ones` 1s in n bits.
/// The comparator threshold convention is (r < level) with r in [0, 2^w);
/// when n == 2^w the level equals the ones count directly.  For other
/// lengths the level is rescaled to the source range so the re-encoded
/// value matches the input value.
std::uint64_t regeneration_level(std::uint64_t ones, std::size_t n,
                                 std::uint64_t range) {
  return n == 0 ? 0 : (ones * range + n / 2) / n;  // round to nearest
}

}  // namespace

Bitstream regenerate(const Bitstream& input, rng::RandomSource& source) {
  const std::size_t n = input.size();
  Bitstream out(n);
  source.fill_compare(out.word_data(), n,
                      regeneration_level(input.count_ones(), n,
                                         source.range()));
  return out;
}

std::vector<Bitstream> regenerate_bus_correlated(
    const std::vector<Bitstream>& inputs, rng::RandomSource& shared_source) {
  if (inputs.empty()) return {};
  const std::size_t n = inputs.front().size();
  for (const Bitstream& input : inputs) {
    require_same_size("sc::convert::regenerate_bus_correlated", input.size(),
                      n);
  }
  std::vector<Bitstream> out = inputs;
  std::vector<Bitstream::Word*> streams;
  streams.reserve(out.size());
  for (Bitstream& stream : out) streams.push_back(stream.word_data());
  regenerate_bus_correlated(streams, n, shared_source);
  return out;
}

void regenerate_bus_correlated(sc::span<Bitstream::Word* const> streams,
                               std::size_t n,
                               rng::RandomSource& shared_source) {
  if (streams.empty()) return;
  // One shared RNG drives every comparator, so the per-cycle random value
  // must be identical across streams: draw the trace once.
  std::vector<std::uint32_t> trace(n);
  shared_source.fill(trace.data(), n);
  const std::size_t words = (n + 63) / 64;
  for (Bitstream::Word* stream : streams) {
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < words; ++i) ones += std::popcount(stream[i]);
    std::fill_n(stream, words, Bitstream::Word{0});
    simd::pack_compare_lt(trace.data(), n,
                          regeneration_level(ones, n, shared_source.range()),
                          stream);
  }
}

}  // namespace sc::convert
