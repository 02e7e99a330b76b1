/// Tests for the SC median filter extension: sorting-network validity (the
/// 0-1 principle over all 512 binary inputs), SC median accuracy, and the
/// image-level filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "bitstream/synthesis.hpp"
#include "img/kernels.hpp"
#include "img/median.hpp"
#include "test_util.hpp"

namespace sc::img {
namespace {

TEST(MedianNetwork, Has25CompareExchanges) {
  EXPECT_EQ(median9_network().size(), 25u);
  for (const auto& [lo, hi] : median9_network()) {
    EXPECT_GE(lo, 0);
    EXPECT_LT(hi, 9);
    EXPECT_NE(lo, hi);
  }
}

TEST(MedianNetwork, SortsAllBinaryVectorsZeroOnePrinciple) {
  // The 0-1 principle: a comparator network sorts every input iff it sorts
  // every 0/1 input.  Exhaust all 2^9 binary vectors.
  for (unsigned mask = 0; mask < 512; ++mask) {
    std::array<int, 9> lanes;
    for (int i = 0; i < 9; ++i) lanes[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    for (const auto& [lo, hi] : median9_network()) {
      const int a = lanes[static_cast<std::size_t>(lo)];
      const int b = lanes[static_cast<std::size_t>(hi)];
      lanes[static_cast<std::size_t>(lo)] = std::min(a, b);
      lanes[static_cast<std::size_t>(hi)] = std::max(a, b);
    }
    EXPECT_TRUE(std::is_sorted(lanes.begin(), lanes.end())) << "mask=" << mask;
  }
}

TEST(ScMedian9, ExactOnMaximallyCorrelatedInputs) {
  // All nine streams from one shared ramp: compare-exchanges are exact.
  std::array<Bitstream, 9> window;
  const std::array<std::uint32_t, 9> levels = {10,  200, 90, 130, 60,
                                               250, 40,  170, 110};
  for (int k = 0; k < 9; ++k) {
    Bitstream s(256);
    for (std::size_t i = 0; i < 256; ++i) {
      if (i < levels[static_cast<std::size_t>(k)]) s.set(i, true);
    }
    window[static_cast<std::size_t>(k)] = s;
  }
  const Bitstream median = sc_median9(window);
  // True median of the levels is 110.
  EXPECT_NEAR(median.value(), 110.0 / 256.0, 6.0 / 256.0);
}

TEST(ScMedian9, AccurateOnUncorrelatedInputs) {
  std::array<Bitstream, 9> window;
  const std::array<std::uint32_t, 9> levels = {30, 180, 75,  140, 95,
                                               220, 55, 160, 120};
  for (int k = 0; k < 9; ++k) {
    window[static_cast<std::size_t>(k)] = sc::make_stream(
        levels[static_cast<std::size_t>(k)], 256,
        0x1234u + static_cast<std::uint64_t>(k));
  }
  const Bitstream median = sc_median9(window);
  EXPECT_NEAR(median.value(), 120.0 / 256.0, 14.0 / 256.0);
}

TEST(ScMedian9, AllEqualInputs) {
  std::array<Bitstream, 9> window;
  for (int k = 0; k < 9; ++k) {
    window[static_cast<std::size_t>(k)] = test::vdc_stream(128);
  }
  EXPECT_NEAR(sc_median9(window).value(), 0.5, 4.0 / 256.0);
}

TEST(ScMedianFilter, TracksFloatReferenceOnSmoothImage) {
  const Image input = Image::blobs(8, 8, 21);
  const Image reference = median3x3(input);
  MedianConfig config;
  const Image filtered = sc_median_filter(input, config);
  EXPECT_LT(mean_abs_error(filtered, reference), 0.06);
}

TEST(ScMedianFilter, SuppressesImpulseNoiseLikeReference) {
  Image noisy(8, 8, 0.25);
  noisy.at(4, 4) = 1.0;
  const Image filtered = sc_median_filter(noisy, MedianConfig{});
  // The outlier should be rejected toward the background value.
  EXPECT_LT(filtered.at(4, 4), 0.45);
}

TEST(ScMedianFilter, OutputDimensionsMatch) {
  const Image input = Image::gradient(6, 5);
  const Image filtered = sc_median_filter(input, MedianConfig{});
  EXPECT_EQ(filtered.width(), 6u);
  EXPECT_EQ(filtered.height(), 5u);
}

TEST(ScMedianFilter, DeeperSynchronizersDoNotHurt) {
  const Image input = Image::blobs(6, 6, 33);
  const Image reference = median3x3(input);
  MedianConfig shallow;
  shallow.sync_depth = 1;
  MedianConfig deep;
  deep.sync_depth = 4;
  const double err_shallow =
      mean_abs_error(sc_median_filter(input, shallow), reference);
  const double err_deep =
      mean_abs_error(sc_median_filter(input, deep), reference);
  EXPECT_LT(err_deep, err_shallow + 0.03);
}

TEST(ScMedianFilter, FullWidthGeneratorsProduceAFrame) {
  // At sng_width 32, 1u << 32 is undefined; on x86 it came out as a
  // natural length of 1, every level rounded to 0 or 1, and the frame
  // came out blank.
  const Image input = Image::checkerboard(12, 12, 3);
  MedianConfig config;
  config.sng_width = 32;
  const Image filtered = sc_median_filter(input, config);
  const auto mean = [](const Image& image) {
    const std::vector<double>& px = image.pixels();
    return std::accumulate(px.begin(), px.end(), 0.0) /
           static_cast<double>(px.size());
  };
  EXPECT_GT(mean(filtered), 0.5 * mean(median3x3(input)));
}

TEST(ScMedianFilter, InvalidInputsThrow) {
  MedianConfig no_banks;
  no_banks.input_banks = 0;  // would divide by zero picking a bank
  EXPECT_THROW(sc_median_filter(Image::gradient(6, 5), no_banks),
               std::invalid_argument);
  EXPECT_THROW(sc_median_filter(Image(), MedianConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sc::img
