/// Tests for bipolar-encoded arithmetic and the weighted (categorical)
/// sampler used by MUX-tree kernels.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arith/bipolar.hpp"
#include "arith/multiply.hpp"
#include "convert/weighted_sampler.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"
#include "test_util.hpp"

namespace sc {
namespace {

TEST(Bipolar, NegateFlipsSign) {
  const Bitstream x = test::vdc_stream(192);  // v = +0.5
  EXPECT_DOUBLE_EQ(arith::negate_bipolar(x).bipolar_value(),
                   -x.bipolar_value());
}

TEST(Bipolar, NegateIsInvolution) {
  const Bitstream x = test::halton3_stream(77);
  EXPECT_EQ(arith::negate_bipolar(arith::negate_bipolar(x)), x);
}

class BipolarAddSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(BipolarAddSweep, ScaledAddAveragesBipolarValues) {
  const auto [lx, ly] = GetParam();
  const Bitstream x = test::vdc_stream(lx);
  const Bitstream y = test::halton3_stream(ly);
  rng::Lfsr sel(8, 55);
  const Bitstream z = arith::scaled_add_bipolar(x, y, sel);
  EXPECT_NEAR(z.bipolar_value(),
              0.5 * (x.bipolar_value() + y.bipolar_value()), 0.08);
}

TEST_P(BipolarAddSweep, ScaledSubHalvesDifference) {
  const auto [lx, ly] = GetParam();
  const Bitstream x = test::vdc_stream(lx);
  const Bitstream y = test::halton3_stream(ly);
  rng::Lfsr sel(8, 55);
  const Bitstream z = arith::scaled_sub_bipolar(x, y, sel);
  EXPECT_NEAR(z.bipolar_value(),
              0.5 * (x.bipolar_value() - y.bipolar_value()), 0.08);
}

INSTANTIATE_TEST_SUITE_P(
    ValueGrid, BipolarAddSweep,
    ::testing::Combine(::testing::Values(32u, 128u, 224u),
                       ::testing::Values(64u, 128u, 208u)));

TEST(Bipolar, XnorMultipliesBipolarValues) {
  // -0.5 * +0.5 = -0.25 with uncorrelated operands.
  const Bitstream x = test::vdc_stream(64);    // v = -0.5
  const Bitstream y = test::halton3_stream(192);  // v = +0.5
  const Bitstream z = arith::multiply_bipolar(x, y);
  EXPECT_NEAR(z.bipolar_value(), -0.25, 0.06);
}

TEST(Bipolar, ExplicitSelectStreamForm) {
  const Bitstream x = test::vdc_stream(128);
  const Bitstream y = test::halton3_stream(128);
  const Bitstream sel = test::lfsr_stream(128, 5);
  const Bitstream viaStream = arith::scaled_add_bipolar(x, y, sel);
  EXPECT_EQ(viaStream, Bitstream::mux(x, y, sel));
}

// --- weighted sampler -------------------------------------------------------

TEST(WeightedSampler, UniformWeightsCoverAllCategories) {
  convert::WeightedSampler sampler({1, 1, 1, 1},
                                   std::make_unique<rng::VanDerCorput>(8));
  std::array<int, 4> histogram{};
  for (int i = 0; i < 256; ++i) {
    ++histogram[sampler.step()];
  }
  for (int count : histogram) EXPECT_EQ(count, 64);
}

TEST(WeightedSampler, InvalidConstructionThrows) {
  // Checked in every build mode: all-zero weights reached `next() % 0`
  // (SIGFPE) on the first step().
  const auto source = [] { return std::make_unique<rng::Lfsr>(8, 1); };
  EXPECT_THROW(convert::WeightedSampler({0, 0, 0}, source()),
               std::invalid_argument);
  EXPECT_THROW(convert::WeightedSampler({}, source()), std::invalid_argument);
  EXPECT_THROW(convert::WeightedSampler({1, 2, 1}, nullptr),
               std::invalid_argument);
}

TEST(WeightedSampler, BinomialKernelWeightsMatchProbabilities) {
  // The Gaussian-blur decoder: weights {1,2,1,2,4,2,1,2,1} / 16.
  std::vector<std::uint32_t> weights = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  convert::WeightedSampler sampler(weights,
                                   std::make_unique<rng::VanDerCorput>(8));
  std::array<int, 9> histogram{};
  const int cycles = 4096;
  for (int i = 0; i < cycles; ++i) ++histogram[sampler.step()];
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const double expected = cycles * weights[k] / 16.0;
    EXPECT_NEAR(histogram[k], expected, expected * 0.05 + 4) << k;
  }
}

TEST(WeightedSampler, SingleCategoryAlwaysSelected) {
  convert::WeightedSampler sampler({7},
                                   std::make_unique<rng::Lfsr>(8, 3));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.step(), 0u);
}

TEST(WeightedSampler, TraceMatchesStep) {
  convert::WeightedSampler a({1, 3, 4}, std::make_unique<rng::Lfsr>(8, 9));
  convert::WeightedSampler b({1, 3, 4}, std::make_unique<rng::Lfsr>(8, 9));
  const auto trace = a.trace(64);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], b.step()) << i;
  }
}

TEST(WeightedSampler, ResetReplaysSequence) {
  convert::WeightedSampler sampler({1, 1, 2},
                                   std::make_unique<rng::Lfsr>(8, 21));
  const auto first = sampler.trace(32);
  sampler.reset();
  EXPECT_EQ(sampler.trace(32), first);
}

TEST(WeightedSampler, TotalWeightAccessor) {
  convert::WeightedSampler sampler({1, 2, 1, 2, 4, 2, 1, 2, 1},
                                   std::make_unique<rng::Lfsr>(8, 3));
  EXPECT_EQ(sampler.total_weight(), 16u);
  EXPECT_EQ(sampler.weights().size(), 9u);
}

}  // namespace
}  // namespace sc
