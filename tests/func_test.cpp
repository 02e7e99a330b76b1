/// Tests for the function-synthesis module: Brown-Card FSM functions and
/// the Bernstein/ReSC evaluator, including the decorrelator-chain copy
/// strategy that ties this module back to the paper's contribution.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "bitstream/correlation.hpp"
#include "convert/sng.hpp"
#include "func/bernstein.hpp"
#include "func/fsm_function.hpp"
#include "rng/mt_source.hpp"
#include "test_util.hpp"

namespace sc::func {
namespace {

/// Bernoulli-like stream (the input statistics the Brown-Card FSM analysis
/// assumes; see fsm_function.hpp for why low-discrepancy streams break it).
Bitstream bernoulli_stream(std::uint32_t level, std::size_t n,
                           std::uint32_t seed = 11) {
  convert::Sng sng(std::make_unique<rng::Mt19937Source>(8, seed));
  return sng.generate(level, n);
}

// --- saturating counter -------------------------------------------------------

TEST(SaturatingCounter, StartsMidScaleAndClamps) {
  SaturatingCounter counter(8);
  EXPECT_EQ(counter.state(), 4u);
  for (int i = 0; i < 20; ++i) counter.step(true);
  EXPECT_EQ(counter.state(), 7u);
  for (int i = 0; i < 20; ++i) counter.step(false);
  EXPECT_EQ(counter.state(), 0u);
  counter.reset();
  EXPECT_EQ(counter.state(), 4u);
}

TEST(SaturatingCounter, InvalidStateCountsThrow) {
  // Unchecked in Release, stanh(x, 0) and stanh(x, 1) read 1.0 for any
  // input and stanh(x, 7) gives a plausible-looking 0.52 at x = 0.487.
  const Bitstream x = bernoulli_stream(125, 4096);
  for (const unsigned states : {0u, 1u, 3u, 7u}) {
    EXPECT_THROW(SaturatingCounter{states}, std::invalid_argument) << states;
    EXPECT_THROW(stanh(x, states), std::invalid_argument) << states;
  }
  EXPECT_NO_THROW(SaturatingCounter{2});
}

TEST(SaturatingCounter, TransitionIsTheStepRule) {
  SaturatingCounter counter(6);
  for (unsigned state = 0; state < 6; ++state) {
    for (const bool up : {false, true}) {
      counter.set_state(state);
      EXPECT_EQ(counter.step(up), SaturatingCounter::transition(6, state, up));
    }
  }
}

// --- stanh ------------------------------------------------------------------------

class StanhSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StanhSweep, ApproximatesTanh) {
  const std::uint32_t level = GetParam();
  const Bitstream x = bernoulli_stream(level, 8192);
  const unsigned states = 8;
  const Bitstream y = stanh(x, states);
  const double v = 2.0 * (level / 256.0) - 1.0;
  const double expected = std::tanh(states / 2.0 * v);
  EXPECT_NEAR(y.bipolar_value(), expected, 0.12) << "v=" << v;
}

TEST(Stanh, LowDiscrepancyInputBreaksTheFsm) {
  // Documented caveat: a VDC stream at p = 0.5 alternates bits
  // deterministically, pinning the counter at the threshold - the output
  // saturates instead of reading tanh(0) = 0.
  const Bitstream x = test::vdc_stream(128, 2048);
  EXPECT_GT(std::abs(stanh(x, 8).bipolar_value()), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Levels, StanhSweep,
                         ::testing::Values(16u, 64u, 96u, 128u, 160u, 192u,
                                           240u));

TEST(Stanh, SaturatesAtRails) {
  EXPECT_GT(stanh(Bitstream(512, true), 8).bipolar_value(), 0.95);
  EXPECT_LT(stanh(Bitstream(512, false), 8).bipolar_value(), -0.95);
}

TEST(Stanh, MoreStatesSteepen) {
  // At a modest positive input, a steeper (more-state) stanh sits closer
  // to +1.
  const Bitstream x = bernoulli_stream(160, 8192);  // v = +0.25
  EXPECT_GT(stanh(x, 16).bipolar_value(), stanh(x, 4).bipolar_value());
}

// --- sexp --------------------------------------------------------------------------

TEST(Sexp, DecaysWithPositiveInput) {
  // p(out) ~ exp(-2 g v) for v > 0.
  const unsigned states = 16;
  const unsigned g = 2;
  for (std::uint32_t level : {144u, 176u, 208u}) {
    const Bitstream x = bernoulli_stream(level, 8192);
    const double v = 2.0 * (level / 256.0) - 1.0;
    const double expected = std::exp(-2.0 * g * v);
    EXPECT_NEAR(sexp(x, states, g).value(), expected, 0.12) << v;
  }
}

TEST(Sexp, NearOneForNegativeInput) {
  const Bitstream x = bernoulli_stream(64, 2048);  // v = -0.5
  EXPECT_GT(sexp(x, 16, 2).value(), 0.9);
}

TEST(Sexp, InvalidParametersThrow) {
  // g > states used to wrap `states - g` and emit all ones.
  const Bitstream x = bernoulli_stream(125, 4096);
  EXPECT_THROW(sexp(x, 8, 9), std::invalid_argument);
  EXPECT_THROW(Sexp(8, 9), std::invalid_argument);
  EXPECT_THROW(sexp(x, 7, 1), std::invalid_argument);
  EXPECT_THROW(sexp(x, 0, 0), std::invalid_argument);
  // g = states is the valid extreme: the output is always 0.
  EXPECT_EQ(sexp(x, 8, 8).count_ones(), 0u);
}

// --- Bernstein utilities --------------------------------------------------------------

TEST(Bernstein, CoefficientsSampleTheFunction) {
  const auto coefficients =
      bernstein_coefficients([](double t) { return t * t; }, 4);
  ASSERT_EQ(coefficients.size(), 5u);
  EXPECT_DOUBLE_EQ(coefficients[0], 0.0);
  EXPECT_DOUBLE_EQ(coefficients[2], 0.25);
  EXPECT_DOUBLE_EQ(coefficients[4], 1.0);
}

TEST(Bernstein, CoefficientsClampToUnit) {
  const auto coefficients =
      bernstein_coefficients([](double t) { return 2.0 * t - 0.5; }, 2);
  EXPECT_DOUBLE_EQ(coefficients[0], 0.0);   // clamped from -0.5
  EXPECT_DOUBLE_EQ(coefficients[2], 1.0);   // clamped from 1.5
}

TEST(Bernstein, ValueMatchesDeCasteljau) {
  // Linear function: Bernstein form is exact.
  const std::vector<double> linear = {0.2, 0.8};
  EXPECT_NEAR(bernstein_value(linear, 0.25), 0.35, 1e-12);
  // Constant function.
  const std::vector<double> constant = {0.6, 0.6, 0.6};
  EXPECT_NEAR(bernstein_value(constant, 0.7), 0.6, 1e-12);
}

TEST(Bernstein, OperatorConvergesToSmoothFunction) {
  const auto f = [](double t) { return 0.5 + 0.4 * std::sin(3.0 * t); };
  const auto c4 = bernstein_coefficients(f, 4);
  const auto c16 = bernstein_coefficients(f, 16);
  double err4 = 0.0, err16 = 0.0;
  for (double x = 0.05; x < 1.0; x += 0.05) {
    err4 += std::abs(bernstein_value(c4, x) - f(x));
    err16 += std::abs(bernstein_value(c16, x) - f(x));
  }
  EXPECT_LT(err16, err4);
}

TEST(Bernstein, ValueOfNoCoefficientsThrows) {
  // Degree = size - 1 wrapped to SIZE_MAX in Release.
  EXPECT_THROW(bernstein_value({}, 0.5), std::invalid_argument);
}

// --- ReSC evaluation -----------------------------------------------------------------

TEST(Resc, EvaluateCountsSelectCoefficientStream) {
  // Two copies all-1: always selects coefficient stream 2.
  std::vector<Bitstream> copies = {Bitstream(8, true), Bitstream(8, true)};
  std::vector<Bitstream> coefficients = {
      Bitstream::from_string("00000000"), Bitstream::from_string("10101010"),
      Bitstream::from_string("11111111")};
  const Bitstream out = resc_evaluate(copies, coefficients);
  EXPECT_EQ(out, Bitstream(8, true));
}

TEST(Resc, ExpectedNeedsOneCoefficientMoreThanCopyValues) {
  const std::vector<double> coefficients = {0.1, 0.5, 0.9};
  EXPECT_NO_THROW(resc_expected(coefficients, std::vector<double>{0.5, 0.5}));
  EXPECT_THROW(resc_expected(coefficients, std::vector<double>{0.5}),
               std::invalid_argument);
  EXPECT_THROW(resc_expected(coefficients, std::vector<double>(3, 0.5)),
               std::invalid_argument);
}

TEST(Resc, EvaluateRejectsMismatchedCountsAndLengths) {
  const std::vector<Bitstream> copies(2, Bitstream(64));
  const std::vector<Bitstream> coefficients(3, Bitstream(64));
  EXPECT_NO_THROW(resc_evaluate(copies, coefficients));
  EXPECT_THROW(resc_evaluate({}, std::vector<Bitstream>(1, Bitstream(64))),
               std::invalid_argument);
  EXPECT_THROW(resc_evaluate(copies, std::vector<Bitstream>(2, Bitstream(64))),
               std::invalid_argument);
  std::vector<Bitstream> short_copy = copies;
  short_copy[1] = Bitstream(32);
  EXPECT_THROW(resc_evaluate(short_copy, coefficients), std::invalid_argument);
  std::vector<Bitstream> short_coefficient = coefficients;
  short_coefficient[2] = Bitstream(32);
  EXPECT_THROW(resc_evaluate(copies, short_coefficient),
               std::invalid_argument);
}

class RescStrategySweep : public ::testing::TestWithParam<double> {};

TEST_P(RescStrategySweep, IndependentCopiesComputeGammaCurve) {
  const double x = GetParam();
  const auto gamma = [](double t) { return std::pow(t, 2.2); };
  RescConfig config;
  config.degree = 6;
  config.stream_length = 1024;
  config.strategy = CopyStrategy::kIndependentSources;
  const double expected =
      bernstein_value(bernstein_coefficients(gamma, 6), x);
  EXPECT_NEAR(resc_apply(gamma, x, config), expected, 0.06) << x;
}

TEST_P(RescStrategySweep, DecorrelatorChainMatchesIndependentSources) {
  const double x = GetParam();
  const auto gamma = [](double t) { return std::pow(t, 2.2); };
  RescConfig config;
  config.degree = 6;
  config.stream_length = 1024;
  const double expected =
      bernstein_value(bernstein_coefficients(gamma, 6), x);

  config.strategy = CopyStrategy::kDecorrelatorChain;
  EXPECT_NEAR(resc_apply(gamma, x, config), expected, 0.08) << x;
}

INSTANTIATE_TEST_SUITE_P(InputGrid, RescStrategySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(Resc, SharedSourceCopiesBreakTheEvaluation) {
  // With one RNG for all copies, the popcount is 0 or n every cycle, so
  // only the extreme coefficient streams get selected - the polynomial
  // collapses to b_0 (1-x) + b_n x.
  const auto gamma = [](double t) { return std::pow(t, 2.2); };
  RescConfig config;
  config.degree = 6;
  config.stream_length = 1024;
  config.strategy = CopyStrategy::kSharedSource;
  const double broken = resc_apply(gamma, 0.5, config);
  const double expected =
      bernstein_value(bernstein_coefficients(gamma, 6), 0.5);
  // Collapsed form at x = 0.5: 0.5 * (b0 + b6) = 0.5 vs expected ~0.22.
  EXPECT_GT(std::abs(broken - expected), 0.15);
}

TEST(Resc, DecorrelatorChainRecoversMostOfTheAccuracy) {
  const auto f = [](double t) { return 0.25 + 0.5 * t * t; };
  RescConfig config;
  config.degree = 4;
  config.stream_length = 1024;

  double err_indep = 0.0, err_shared = 0.0, err_chain = 0.0;
  const auto coefficients = bernstein_coefficients(f, 4);
  for (double x = 0.1; x < 1.0; x += 0.2) {
    const double expected = bernstein_value(coefficients, x);
    config.strategy = CopyStrategy::kIndependentSources;
    err_indep += std::abs(resc_apply(f, x, config) - expected);
    config.strategy = CopyStrategy::kSharedSource;
    err_shared += std::abs(resc_apply(f, x, config) - expected);
    config.strategy = CopyStrategy::kDecorrelatorChain;
    err_chain += std::abs(resc_apply(f, x, config) - expected);
  }
  EXPECT_LT(err_chain, err_shared * 0.5);  // the decorrelator fixes it...
  EXPECT_LT(err_indep, err_shared);        // ...approaching the ideal
}

TEST(Resc, Width32SourcesEncodeAtFullScale) {
  // At sng_width 32 the natural length was `1u << 32` (undefined), and
  // every strategy returned 0.0.  x^2 at 0.5 has the degree-4 Bernstein
  // value 0.3125; shared copies collapse it to (b_0 + b_4) / 2 = 0.5.
  const auto square = [](double t) { return t * t; };
  const struct {
    CopyStrategy strategy;
    double expected;
  } cases[] = {
      {CopyStrategy::kIndependentSources, 0.3125},
      {CopyStrategy::kSharedSource, 0.5},
      {CopyStrategy::kDecorrelatorChain, 0.3125},
  };
  for (const auto& c : cases) {
    RescConfig config;
    config.sng_width = 32;
    config.strategy = c.strategy;
    EXPECT_NEAR(resc_apply(square, 0.5, config), c.expected, 0.08)
        << static_cast<int>(c.strategy);
  }
}

}  // namespace
}  // namespace sc::func
