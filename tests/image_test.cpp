/// Tests for the image substrate: container semantics, synthetic scenes,
/// PGM round-trips, and the float reference kernels.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "img/image.hpp"
#include "img/kernels.hpp"

namespace sc::img {
namespace {

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, 0.5);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.pixel_count(), 12u);
  EXPECT_DOUBLE_EQ(img.at(2, 1), 0.5);
  img.at(2, 1) = 0.9;
  EXPECT_DOUBLE_EQ(img.at(2, 1), 0.9);
}

TEST(Image, ClampedAccessAtBorders) {
  Image img(3, 3);
  img.at(0, 0) = 0.1;
  img.at(2, 2) = 0.9;
  EXPECT_DOUBLE_EQ(img.at_clamped(-5, -5), 0.1);
  EXPECT_DOUBLE_EQ(img.at_clamped(10, 10), 0.9);
  EXPECT_DOUBLE_EQ(img.at_clamped(1, 1), img.at(1, 1));
}

TEST(Image, ClampLimitsRange) {
  Image img(2, 1);
  img.at(0, 0) = -0.5;
  img.at(1, 0) = 1.5;
  img.clamp();
  EXPECT_DOUBLE_EQ(img.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(img.at(1, 0), 1.0);
}

TEST(Image, GradientIsMonotone) {
  const Image g = Image::gradient(8, 8);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.at(7, 7), 1.0);
  EXPECT_LT(g.at(1, 1), g.at(5, 5));
}

TEST(Image, CheckerboardAlternates) {
  const Image cb = Image::checkerboard(8, 8, 2);
  EXPECT_DOUBLE_EQ(cb.at(0, 0), 0.85);
  EXPECT_DOUBLE_EQ(cb.at(2, 0), 0.15);
  EXPECT_DOUBLE_EQ(cb.at(2, 2), 0.85);
}

TEST(Image, BlobsAreDeterministicPerSeed) {
  const Image a = Image::blobs(16, 16, 42);
  const Image b = Image::blobs(16, 16, 42);
  const Image c = Image::blobs(16, 16, 43);
  EXPECT_DOUBLE_EQ(mean_abs_error(a, b), 0.0);
  EXPECT_GT(mean_abs_error(a, c), 0.0);
}

TEST(Image, SyntheticSceneInUnitRange) {
  const Image s = Image::synthetic_scene(20, 20, 7);
  for (double p : s.pixels()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Image, PgmRoundTrip) {
  const Image original = Image::synthetic_scene(12, 9, 3);
  const std::string path = "/tmp/scorr_test_roundtrip.pgm";
  ASSERT_TRUE(original.save_pgm(path));
  std::string error;
  const Image loaded = Image::load_pgm(path, &error);
  ASSERT_FALSE(loaded.empty()) << error;
  EXPECT_EQ(loaded.width(), 12u);
  EXPECT_EQ(loaded.height(), 9u);
  // 8-bit quantization: within half a gray level.
  EXPECT_LT(max_abs_error(original, loaded), 0.5 / 255.0 + 1e-9);
  std::remove(path.c_str());
}

TEST(Image, LoadPgmRejectsMissingFile) {
  std::string error;
  const Image img = Image::load_pgm("/tmp/definitely_missing_scorr.pgm", &error);
  EXPECT_TRUE(img.empty());
  EXPECT_FALSE(error.empty());
}

TEST(Image, ErrorMetrics) {
  Image a(2, 2, 0.5);
  Image b(2, 2, 0.5);
  b.at(1, 1) = 0.9;
  EXPECT_DOUBLE_EQ(mean_abs_error(a, b), 0.1);
  EXPECT_DOUBLE_EQ(max_abs_error(a, b), 0.4);
  EXPECT_DOUBLE_EQ(mean_abs_error(a, a), 0.0);
}

TEST(Image, ErrorMetricsRejectMismatchedSizes) {
  // Both metrics walk the two pixel arrays in step: a smaller second
  // image was read out of bounds, a smaller first one silently compared
  // only a prefix.
  const Image big(64, 64, 0.5);
  const Image small(1, 1, 0.5);
  EXPECT_THROW(mean_abs_error(big, small), std::invalid_argument);
  EXPECT_THROW(max_abs_error(big, small), std::invalid_argument);
  EXPECT_THROW(mean_abs_error(small, big), std::invalid_argument);
  EXPECT_THROW(max_abs_error(small, big), std::invalid_argument);
  // Same pixel count, different shape.
  EXPECT_THROW(mean_abs_error(Image(2, 3), Image(3, 2)),
               std::invalid_argument);
}

TEST(Image, CheckerboardRejectsZeroCell) {
  EXPECT_THROW(Image::checkerboard(4, 4, 0), std::invalid_argument);
}

// --- float kernels ---------------------------------------------------------------

TEST(GaussianBlur, PreservesConstantImage) {
  const Image flat(6, 6, 0.3);
  const Image blurred = gaussian_blur3(flat);
  EXPECT_LT(max_abs_error(flat, blurred), 1e-12);
}

TEST(GaussianBlur, WeightsSumSixteen) {
  int sum = 0;
  for (int w : kGaussianWeights16) sum += w;
  EXPECT_EQ(sum, 16);
}

TEST(GaussianBlur, SmoothsAnImpulse) {
  Image impulse(5, 5, 0.0);
  impulse.at(2, 2) = 1.0;
  const Image blurred = gaussian_blur3(impulse);
  EXPECT_DOUBLE_EQ(blurred.at(2, 2), 4.0 / 16.0);
  EXPECT_DOUBLE_EQ(blurred.at(1, 2), 2.0 / 16.0);
  EXPECT_DOUBLE_EQ(blurred.at(1, 1), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(blurred.at(0, 0), 0.0);
}

TEST(RobertsCross, ZeroOnConstantImage) {
  const Image flat(6, 6, 0.7);
  const Image edges = roberts_cross(flat);
  EXPECT_LT(max_abs_error(Image(6, 6, 0.0), edges), 1e-12);
}

TEST(RobertsCross, DetectsDiagonalStep) {
  // Vertical step edge: |a-d| and |b-c| each see the step across columns.
  Image step(6, 6, 0.0);
  for (std::size_t y = 0; y < 6; ++y)
    for (std::size_t x = 3; x < 6; ++x) step.at(x, y) = 1.0;
  const Image edges = roberts_cross(step);
  // At x = 2: a = 0, d = 1, b = 1, c = 0 -> 0.5 * (1 + 1) = 1.
  EXPECT_DOUBLE_EQ(edges.at(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(edges.at(0, 2), 0.0);
}

TEST(ReferencePipeline, ComposesBlurs) {
  const Image input = Image::synthetic_scene(16, 16, 5);
  const Image direct = roberts_cross(gaussian_blur3(input));
  const Image composed = reference_pipeline(input);
  EXPECT_DOUBLE_EQ(mean_abs_error(direct, composed), 0.0);
}

TEST(Median3x3, ConstantImageFixedPoint) {
  const Image flat(5, 5, 0.4);
  EXPECT_LT(max_abs_error(flat, median3x3(flat)), 1e-12);
}

TEST(Median3x3, RemovesSaltNoise) {
  Image img(5, 5, 0.2);
  img.at(2, 2) = 1.0;  // isolated outlier
  const Image filtered = median3x3(img);
  EXPECT_DOUBLE_EQ(filtered.at(2, 2), 0.2);
}

}  // namespace
}  // namespace sc::img
