/// Tests for the SC Sobel detector: float reference semantics, SC accuracy
/// with manipulation, and the no-manipulation failure mode (the desync
/// saturating adder's application-level payoff).

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "img/image.hpp"
#include "img/sobel.hpp"

namespace sc::img {
namespace {

TEST(SobelReference, ZeroOnConstantImage) {
  const Image flat(8, 8, 0.6);
  EXPECT_LT(max_abs_error(sobel_reference(flat), Image(8, 8, 0.0)), 1e-12);
}

TEST(SobelReference, RespondsToVerticalEdge) {
  Image step(8, 8, 0.1);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 4; x < 8; ++x) step.at(x, y) = 0.9;
  const Image edges = sobel_reference(step);
  // At the edge column the horizontal gradient is |0.9 - 0.1| = 0.8.
  EXPECT_NEAR(edges.at(4, 4), 0.8, 1e-12);
  EXPECT_NEAR(edges.at(1, 4), 0.0, 1e-12);
}

TEST(SobelReference, SaturatesOnSharpCorners) {
  Image corner(8, 8, 0.0);
  for (std::size_t y = 4; y < 8; ++y)
    for (std::size_t x = 4; x < 8; ++x) corner.at(x, y) = 1.0;
  const Image edges = sobel_reference(corner);
  double peak = 0.0;
  for (double p : edges.pixels()) peak = std::max(peak, p);
  EXPECT_DOUBLE_EQ(peak, 1.0);  // |gx| + |gy| clamps at 1
}

TEST(ScSobel, TracksReferenceWithManipulation) {
  const Image scene = Image::synthetic_scene(16, 16, 9);
  SobelConfig config;
  const SobelResult result = run_sc_sobel(scene, config);
  // The |difference|-of-sampled-streams noise floor sits near 0.05 (the
  // same floor as the paper's Roberts ED); manipulation gets us there.
  EXPECT_LT(result.error, 0.06);
}

TEST(ScSobel, NoManipulationIsMuchWorse) {
  const Image scene = Image::synthetic_scene(16, 16, 9);
  SobelConfig with;
  SobelConfig without;
  without.manipulate = false;
  const SobelResult good = run_sc_sobel(scene, with);
  const SobelResult bad = run_sc_sobel(scene, without);
  EXPECT_GT(bad.error, 2.0 * good.error);
}

TEST(ScSobel, OutputDimensionsAndDeterminism) {
  const Image scene = Image::synthetic_scene(9, 7, 4);
  const SobelResult a = run_sc_sobel(scene, SobelConfig{});
  const SobelResult b = run_sc_sobel(scene, SobelConfig{});
  EXPECT_EQ(a.output.width(), 9u);
  EXPECT_EQ(a.output.height(), 7u);
  EXPECT_DOUBLE_EQ(mean_abs_error(a.output, b.output), 0.0);
}

TEST(ScSobel, ManipulatorNetlistAccounted) {
  const Image scene = Image::synthetic_scene(6, 6, 4);
  const SobelResult with = run_sc_sobel(scene, SobelConfig{});
  EXPECT_GT(with.manipulators.total_cells(), 0u);
  SobelConfig off;
  off.manipulate = false;
  const SobelResult without = run_sc_sobel(scene, off);
  EXPECT_EQ(without.manipulators.total_cells(), 0u);
}

TEST(ScSobel, DeeperDesyncImprovesSaturatingSum) {
  // A high-contrast scene saturates many magnitudes; deeper desync depth
  // unpack more coincident 1s and should not hurt.
  const Image scene = Image::checkerboard(12, 12, 3);
  SobelConfig shallow;
  shallow.desync_depth = 1;
  SobelConfig deep;
  deep.desync_depth = 8;
  const double err_shallow = run_sc_sobel(scene, shallow).error;
  const double err_deep = run_sc_sobel(scene, deep).error;
  EXPECT_LE(err_deep, err_shallow + 0.01);
}

TEST(ScSobel, FullWidthGeneratorsProduceAFrame) {
  // At sng_width 32, 1u << 32 is undefined; on x86 it came out as a
  // natural length of 1, every level rounded to 0 or 1, and the frame
  // came out blank.
  const Image input = Image::checkerboard(16, 16, 4);
  SobelConfig config;
  config.sng_width = 32;
  const SobelResult result = run_sc_sobel(input, config);
  const auto mean = [](const Image& image) {
    const std::vector<double>& px = image.pixels();
    return std::accumulate(px.begin(), px.end(), 0.0) /
           static_cast<double>(px.size());
  };
  EXPECT_GT(mean(result.output), 0.5 * mean(result.reference));
}

TEST(ScSobel, InvalidInputsThrow) {
  SobelConfig no_banks;
  no_banks.input_banks = 0;  // would divide by zero picking a bank
  EXPECT_THROW(run_sc_sobel(Image::gradient(6, 5), no_banks),
               std::invalid_argument);
  EXPECT_THROW(run_sc_sobel(Image(), SobelConfig{}), std::invalid_argument);
}

}  // namespace
}  // namespace sc::img
