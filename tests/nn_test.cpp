/// Tests for the hybrid stochastic-binary NN substrate: the XNOR+APC MAC,
/// layer forward passes under each RNG strategy, and the XOR network
/// end-to-end.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bitstream/encoding.hpp"
#include "convert/sng.hpp"
#include "nn/mlp.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"

namespace sc::nn {
namespace {

Bitstream bipolar_stream(double v, rng::RandomSourcePtr source,
                         std::size_t n = 1024) {
  convert::Sng sng(std::move(source));
  return sng.generate(bipolar_level(v, 256), n);
}

TEST(ScDot, SingleProductMatchesMultiplication) {
  const Bitstream x = bipolar_stream(0.5, std::make_unique<rng::VanDerCorput>(8));
  const Bitstream w = bipolar_stream(-0.6, std::make_unique<rng::Halton>(8, 3));
  const std::vector<Bitstream> xs = {x};
  const std::vector<Bitstream> ws = {w};
  EXPECT_NEAR(sc_dot_bipolar(xs, ws), 0.5 * -0.6, 0.05);
}

TEST(ScDot, AveragesManyProducts) {
  std::vector<Bitstream> xs, ws;
  const std::vector<double> xv = {0.2, -0.8, 0.5, 0.9};
  const std::vector<double> wv = {0.7, 0.3, -0.9, -0.1};
  double expected = 0.0;
  for (std::size_t i = 0; i < xv.size(); ++i) {
    xs.push_back(bipolar_stream(
        xv[i], std::make_unique<rng::Lfsr>(8, 3 + static_cast<std::uint32_t>(i))));
    ws.push_back(bipolar_stream(
        wv[i],
        std::make_unique<rng::Lfsr>(8, 91 + static_cast<std::uint32_t>(i))));
    expected += xv[i] * wv[i];
  }
  expected /= static_cast<double>(xv.size());
  EXPECT_NEAR(sc_dot_bipolar(xs, ws), expected, 0.06);
}

TEST(ForwardFloat, ComputesTanhOfScaledMean) {
  Dense layer;
  layer.weights = {{1.0, -1.0}};
  layer.bias = {0.0};
  layer.alpha = 2.0;
  const std::vector<double> x = {0.5, -0.5};
  // pre = (0.5 + 0.5)/2 = 0.5; out = tanh(1.0).
  const auto out = forward_float(layer, x);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], std::tanh(1.0), 1e-12);
}

class StrategySweep : public ::testing::TestWithParam<RngStrategy> {};

TEST_P(StrategySweep, LayerForwardAccuracyByStrategy) {
  Dense layer;
  layer.weights = {{0.8, -0.4, 0.2}, {-0.6, 0.9, 0.1}};
  layer.bias = {0.1, -0.2};
  layer.alpha = 3.0;
  const std::vector<double> x = {0.3, -0.7, 0.5};
  const auto expected = forward_float(layer, x);

  MlpConfig config;
  config.strategy = GetParam();
  const auto got = forward_sc(layer, x, config);
  ASSERT_EQ(got.size(), expected.size());

  double err = 0.0;
  for (std::size_t j = 0; j < got.size(); ++j) {
    err += std::abs(got[j] - expected[j]);
  }
  err /= static_cast<double>(got.size());
  if (GetParam() == RngStrategy::kSingleRng) {
    EXPECT_GT(err, 0.15);  // correlated MAC is broken
  } else {
    EXPECT_LT(err, 0.15) << "strategy should be accurate";
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySweep,
                         ::testing::Values(RngStrategy::kTwoRngs,
                                           RngStrategy::kSingleRng,
                                           RngStrategy::kDecorrelated));

TEST(XorNetwork, FloatReferenceClassifiesXor) {
  const auto net = xor_network();
  const double cases[4][3] = {
      {-1, -1, -1}, {-1, +1, +1}, {+1, -1, +1}, {+1, +1, -1}};
  for (const auto& c : cases) {
    const std::vector<double> x = {c[0], c[1]};
    const auto out = forward_float(net, x);
    EXPECT_GT(out[0] * c[2], 0.2) << c[0] << "," << c[1];
  }
}

TEST(XorNetwork, StochasticForwardMatchesSign) {
  const auto net = xor_network();
  MlpConfig config;
  config.stream_length = 2048;
  const double cases[4][3] = {
      {-1, -1, -1}, {-1, +1, +1}, {+1, -1, +1}, {+1, +1, -1}};
  for (const auto& c : cases) {
    const std::vector<double> x = {c[0], c[1]};
    const auto out = forward_sc(net, x, config);
    EXPECT_GT(out[0] * c[2], 0.0) << c[0] << "," << c[1];
  }
}

TEST(XorNetwork, SingleRngCorruptsTheOutputs) {
  // With rail inputs (+-1) the classification sign can survive a broken
  // MAC, but the network outputs drift far from the float reference -
  // measure the numeric corruption rather than the decision flip.
  const auto net = xor_network();
  MlpConfig good_config;
  good_config.stream_length = 2048;
  MlpConfig bad_config = good_config;
  bad_config.strategy = RngStrategy::kSingleRng;

  double err_good = 0.0;
  double err_bad = 0.0;
  // Use non-rail inputs where the MAC products actually matter.
  const double cases[4][2] = {{-0.6, -0.7}, {-0.7, 0.6}, {0.6, -0.6},
                              {0.7, 0.6}};
  for (const auto& c : cases) {
    const std::vector<double> x = {c[0], c[1]};
    const auto expected = forward_float(net, x);
    err_good += std::abs(forward_sc(net, x, good_config)[0] - expected[0]);
    err_bad += std::abs(forward_sc(net, x, bad_config)[0] - expected[0]);
  }
  EXPECT_GT(err_bad, 2.0 * err_good);
}

TEST(Mlp, DeterministicPerSeed) {
  Dense layer;
  layer.weights = {{0.5, -0.5}};
  layer.bias = {0.0};
  const std::vector<double> x = {0.4, 0.6};
  MlpConfig config;
  const auto a = forward_sc(layer, x, config);
  const auto b = forward_sc(layer, x, config);
  EXPECT_EQ(a, b);
}

TEST(Mlp, LongerStreamsReduceError) {
  Dense layer;
  layer.weights = {{0.7, -0.3, 0.5, -0.9}};
  layer.bias = {0.05};
  layer.alpha = 2.0;
  const std::vector<double> x = {0.2, 0.8, -0.6, 0.4};
  const auto expected = forward_float(layer, x);

  auto error_at = [&](std::size_t n) {
    MlpConfig config;
    config.stream_length = n;
    const auto got = forward_sc(layer, x, config);
    return std::abs(got[0] - expected[0]);
  };
  EXPECT_LE(error_at(4096), error_at(64) + 0.02);
}

TEST(Mlp, Width32SourcesEncodeAtFullScale) {
  // A width-32 source's natural length 2^32 does not fit uint32: computed
  // as `1u << 32` it is undefined, and every stream came out near
  // constant (0.76 here for float outputs of -0.02 and 0.11).
  Dense layer;
  layer.weights = {{0.5, -0.4, 0.3}, {-0.2, 0.6, 0.1}};
  layer.bias = {0.0, 0.1};
  layer.alpha = 1.0;
  const std::vector<double> x = {0.3, 0.2, -0.4};
  const auto expected = forward_float(layer, x);
  for (const RngStrategy strategy :
       {RngStrategy::kTwoRngs, RngStrategy::kDecorrelated}) {
    MlpConfig config;
    config.width = 32;
    config.strategy = strategy;
    const auto got = forward_sc(layer, x, config);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got[j], expected[j], 0.1) << "output " << j;
    }
  }
}

TEST(Mlp, WrongInputCountThrows) {
  // Checked in every build mode: a longer x read past the weight rows.
  Dense layer;
  layer.weights = {{0.5, -0.4}};
  layer.bias = {0.0};
  for (const std::vector<double>& x :
       {std::vector<double>{0.1}, std::vector<double>{0.1, 0.2, 0.3}}) {
    EXPECT_THROW(forward_sc(layer, x), std::invalid_argument) << x.size();
    EXPECT_THROW(forward_float(layer, x), std::invalid_argument) << x.size();
  }
}

TEST(ScDot, UnequalOrEmptySpansThrow) {
  const std::vector<Bitstream> two = {Bitstream(64), Bitstream(64)};
  const std::vector<Bitstream> one = {Bitstream(64)};
  const std::vector<Bitstream> none;
  EXPECT_THROW(sc_dot_bipolar(two, one), std::invalid_argument);
  EXPECT_THROW(sc_dot_bipolar(one, two), std::invalid_argument);
  EXPECT_THROW(sc_dot_bipolar(none, none), std::invalid_argument);
}

}  // namespace
}  // namespace sc::nn
