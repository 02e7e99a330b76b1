#include "convert/regenerator.hpp"

namespace sc::convert {

Bitstream regenerate(const Bitstream& input, rng::RandomSource& source) {
  const std::size_t n = input.size();
  // S/D: recover the binary level.  The comparator threshold convention is
  // (r < level) with r in [0, 2^w); when n == 2^w the level equals the ones
  // count directly.  For other lengths the level is rescaled to the source
  // range so the re-encoded value matches the input value.
  const std::uint64_t ones = input.count_ones();
  std::uint64_t level = 0;
  if (n != 0) {
    level = (ones * source.range() + n / 2) / n;  // round to nearest
  }
  Bitstream out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(source.next() < level);
  }
  return out;
}

std::vector<Bitstream> regenerate_bus_correlated(
    const std::vector<Bitstream>& inputs, rng::RandomSource& shared_source) {
  std::vector<Bitstream> out;
  out.reserve(inputs.size());
  if (inputs.empty()) return out;
  const std::size_t n = inputs.front().size();
  // One shared RNG drives every comparator, so the per-cycle random value
  // must be identical across streams: generate the trace once.
  std::vector<std::uint32_t> trace(n);
  for (std::size_t i = 0; i < n; ++i) trace[i] = shared_source.next();

  for (const Bitstream& input : inputs) {
    require_same_size("sc::convert::regenerate_bus_correlated", input.size(),
                      n);
    const std::uint64_t ones = input.count_ones();
    const std::uint64_t level =
        n == 0 ? 0 : (ones * shared_source.range() + n / 2) / n;
    Bitstream stream;
    stream.reserve(n);
    for (std::size_t i = 0; i < n; ++i) stream.push_back(trace[i] < level);
    out.push_back(std::move(stream));
  }
  return out;
}

}  // namespace sc::convert
