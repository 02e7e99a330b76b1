#include "img/median.hpp"

#include <stdexcept>

#include "arith/gates.hpp"
#include "bitstream/encoding.hpp"
#include "common/simd.hpp"
#include "core/pair_transform.hpp"
#include "core/synchronizer.hpp"
#include "rng/lfsr.hpp"

namespace sc::img {

const std::array<std::pair<int, int>, 25>& median9_network() {
  // Optimal 25-CE / depth-9 sorting network for 9 inputs (Knuth TAOCP v3).
  static const std::array<std::pair<int, int>, 25> kNetwork = {{
      {0, 3}, {1, 7}, {2, 5}, {4, 8},
      {0, 7}, {2, 4}, {3, 8}, {5, 6},
      {0, 2}, {1, 3}, {4, 5}, {7, 8},
      {1, 4}, {3, 6}, {5, 7},
      {0, 1}, {2, 4}, {3, 5}, {6, 8},
      {2, 3}, {4, 5}, {6, 7},
      {1, 2}, {3, 4}, {5, 6},
  }};
  return kNetwork;
}

Bitstream sc_median9(const std::array<Bitstream, 9>& window,
                     unsigned sync_depth) {
  std::array<Bitstream, 9> lanes = window;
  for (const auto& [lo, hi] : median9_network()) {
    core::Synchronizer sync({sync_depth, false});
    const sc::StreamPair synced =
        core::apply(sync, lanes[static_cast<std::size_t>(lo)],
                    lanes[static_cast<std::size_t>(hi)]);
    lanes[static_cast<std::size_t>(lo)] = arith::and_gate(synced.x, synced.y);
    lanes[static_cast<std::size_t>(hi)] = arith::or_gate(synced.x, synced.y);
  }
  return lanes[4];
}

Image sc_median_filter(const Image& input, const MedianConfig& config) {
  if (input.empty()) {
    throw std::invalid_argument("sc_median_filter: input image is empty");
  }
  if (config.input_banks == 0) {
    throw std::invalid_argument("sc_median_filter: input_banks must be >= 1");
  }
  const std::size_t n = config.stream_length;

  // Shared input RNG bank, free-running across pixels.
  std::vector<rng::Lfsr> banks;
  for (unsigned b = 0; b < config.input_banks; ++b) {
    banks.emplace_back(config.sng_width, config.seed + 17 * (b + 1));
  }
  // 64-bit, and after the LFSRs have checked the width: a width-32
  // generator's natural length 2^32 does not fit uint32.
  const std::uint64_t natural = std::uint64_t{1} << config.sng_width;

  Image out(input.width(), input.height());
  std::vector<std::uint32_t> trace(banks.size() * n);

  for (std::size_t y = 0; y < input.height(); ++y) {
    for (std::size_t x = 0; x < input.width(); ++x) {
      // Fresh bank traces per pixel window (free-running LFSRs).
      for (std::size_t b = 0; b < banks.size(); ++b) {
        banks[b].fill(trace.data() + b * n, n);
      }
      std::array<Bitstream, 9> window;
      int k = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const double pixel =
              input.at_clamped(static_cast<std::ptrdiff_t>(x) + dx,
                               static_cast<std::ptrdiff_t>(y) + dy);
          const std::size_t bank = static_cast<std::size_t>(k) % banks.size();
          Bitstream s(n);
          simd::pack_compare_lt(trace.data() + bank * n, n,
                                unipolar_level64(pixel, natural),
                                s.word_data());
          window[static_cast<std::size_t>(k)] = std::move(s);
          ++k;
        }
      }
      out.at(x, y) = sc_median9(window, config.sync_depth).value();
    }
  }
  return out;
}

}  // namespace sc::img
