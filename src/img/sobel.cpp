#include "img/sobel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "bitstream/encoding.hpp"
#include "common/simd.hpp"
#include "convert/weighted_sampler.hpp"
#include "core/desynchronizer.hpp"
#include "core/pair_transform.hpp"
#include "core/synchronizer.hpp"
#include "hw/designs.hpp"
#include "rng/lfsr.hpp"

namespace sc::img {
namespace {

double column_mean(const Image& img, std::ptrdiff_t x, std::ptrdiff_t y,
                   std::ptrdiff_t dx) {
  return (img.at_clamped(x + dx, y - 1) + 2.0 * img.at_clamped(x + dx, y) +
          img.at_clamped(x + dx, y + 1)) /
         4.0;
}

double row_mean(const Image& img, std::ptrdiff_t x, std::ptrdiff_t y,
                std::ptrdiff_t dy) {
  return (img.at_clamped(x - 1, y + dy) + 2.0 * img.at_clamped(x, y + dy) +
          img.at_clamped(x + 1, y + dy)) /
         4.0;
}

}  // namespace

Image sobel_reference(const Image& input) {
  Image out(input.width(), input.height());
  for (std::size_t y = 0; y < input.height(); ++y) {
    for (std::size_t x = 0; x < input.width(); ++x) {
      const auto ix = static_cast<std::ptrdiff_t>(x);
      const auto iy = static_cast<std::ptrdiff_t>(y);
      const double gx =
          std::abs(column_mean(input, ix, iy, +1) -
                   column_mean(input, ix, iy, -1));
      const double gy =
          std::abs(row_mean(input, ix, iy, +1) - row_mean(input, ix, iy, -1));
      out.at(x, y) = std::min(1.0, gx + gy);
    }
  }
  return out;
}

SobelResult run_sc_sobel(const Image& input, const SobelConfig& config) {
  if (input.empty()) {
    throw std::invalid_argument("run_sc_sobel: input image is empty");
  }
  if (config.input_banks == 0) {
    throw std::invalid_argument("run_sc_sobel: input_banks must be >= 1");
  }
  const std::size_t n = config.stream_length;

  SobelResult result;
  result.reference = sobel_reference(input);
  result.output = Image(input.width(), input.height());

  // Shared infrastructure (free-running, as in the tiled accelerator).
  std::vector<rng::Lfsr> banks;
  for (unsigned b = 0; b < config.input_banks; ++b) {
    banks.emplace_back(config.sng_width, config.seed + 5 * (b + 1));
  }
  convert::WeightedSampler sampler(
      {1, 2, 1}, std::make_unique<rng::Lfsr>(config.sng_width,
                                             config.seed + 977));
  // 64-bit, and after the LFSRs have checked the width: a width-32
  // generator's natural length 2^32 does not fit uint32.
  const std::uint64_t natural = std::uint64_t{1} << config.sng_width;

  std::vector<std::uint32_t> trace(banks.size() * n);

  for (std::size_t y = 0; y < input.height(); ++y) {
    for (std::size_t x = 0; x < input.width(); ++x) {
      // Fresh bank traces + sampler trace for this pixel's window.
      for (std::size_t b = 0; b < banks.size(); ++b) {
        banks[b].fill(trace.data() + b * n, n);
      }
      const auto picks = sampler.trace(n);

      // Generate the window's input streams (3x3, clamped).
      std::array<Bitstream, 9> window;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const double pixel =
              input.at_clamped(static_cast<std::ptrdiff_t>(x) + dx,
                               static_cast<std::ptrdiff_t>(y) + dy);
          const std::size_t idx =
              static_cast<std::size_t>((dy + 1) * 3 + (dx + 1));
          const std::size_t bank =
              (static_cast<std::size_t>(dx + 1) + x + 2 * (y + static_cast<std::size_t>(dy + 1))) %
              banks.size();
          Bitstream s(n);
          simd::pack_compare_lt(trace.data() + bank * n, n,
                                unipolar_level64(pixel, natural),
                                s.word_data());
          window[idx] = std::move(s);
        }
      }

      // Column / row weighted means: per cycle the shared sampler picks
      // element 0, 1 (weight 2), or 2 of each line.
      auto line_mean = [&](const std::array<int, 3>& idx) {
        Bitstream out_stream(n);
        for (std::size_t i = 0; i < n; ++i) {
          const Bitstream& chosen =
              window[static_cast<std::size_t>(idx[picks[i]])];
          if (chosen.get(i)) out_stream.set(i, true);
        }
        return out_stream;
      };
      const Bitstream left = line_mean({0, 3, 6});
      const Bitstream right = line_mean({2, 5, 8});
      const Bitstream top = line_mean({0, 1, 2});
      const Bitstream bottom = line_mean({6, 7, 8});

      Bitstream gx;
      Bitstream gy;
      Bitstream magnitude;
      if (config.manipulate) {
        core::Synchronizer sync_x({config.sync_depth, false});
        core::Synchronizer sync_y({config.sync_depth, false});
        const sc::StreamPair px = core::apply(sync_x, right, left);
        const sc::StreamPair py = core::apply(sync_y, bottom, top);
        gx = px.x ^ px.y;
        gy = py.x ^ py.y;
        core::Desynchronizer desync({config.desync_depth, false});
        const sc::StreamPair sum = core::apply(desync, gx, gy);
        magnitude = sum.x | sum.y;
      } else {
        gx = right ^ left;
        gy = bottom ^ top;
        magnitude = gx | gy;
      }
      result.output.at(x, y) = magnitude.value();
    }
  }

  result.error = mean_abs_error(result.output, result.reference);
  if (config.manipulate) {
    result.manipulators = hw::synchronizer_netlist(config.sync_depth) * 2 +
                          hw::desynchronizer_netlist(config.desync_depth);
    result.manipulators.set_label("sobel-manipulators/pixel");
  } else {
    result.manipulators = hw::Netlist("sobel-manipulators/pixel(none)");
  }
  return result;
}

}  // namespace sc::img
