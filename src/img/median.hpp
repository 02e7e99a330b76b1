/// \file median.hpp
/// SC 3x3 median filter built from the paper's synchronizer-based min/max
/// (an application extension: §III-D's sync-min/max as the compare-exchange
/// of a sorting network).
///
/// A compare-exchange on two SNs is one synchronizer followed by an AND
/// (min) and an OR (max) on the synchronized pair - a single synchronizer
/// serves both outputs.  Nine window streams pass through a 25-element
/// optimal sorting network; the middle output is the median.

#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "img/image.hpp"

namespace sc::img {

/// The 25 compare-exchange pairs of the optimal 9-input sorting network
/// (after all exchanges, lane i holds the i-th smallest value).
const std::array<std::pair<int, int>, 25>& median9_network();

/// Sorts 9 streams by value with sync-min/max compare-exchanges; returns the
/// median lane (index 4).  `sync_depth` is the synchronizer save depth.
Bitstream sc_median9(const std::array<Bitstream, 9>& window,
                     unsigned sync_depth = 1);

/// Parameters for the SC median filter.
struct MedianConfig {
  std::size_t stream_length = 256;
  unsigned sng_width = 8;
  unsigned input_banks = 8;
  unsigned sync_depth = 1;
  std::uint32_t seed = 23;
};

/// Runs the SC 3x3 median filter over a whole image; compare against
/// median3x3() for the float reference.  An empty image or input_banks 0
/// throws std::invalid_argument.
Image sc_median_filter(const Image& input, const MedianConfig& config = {});

}  // namespace sc::img
