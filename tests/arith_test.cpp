/// Tests for the SC arithmetic library (paper Fig. 2 + correlation-agnostic
/// baselines): each operation at its required correlation, plus failure
/// modes at the wrong correlation (the errors the paper's circuits fix).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <tuple>

#include "arith/add.hpp"
#include "arith/divide.hpp"
#include "arith/gates.hpp"
#include "arith/minmax.hpp"
#include "arith/multiply.hpp"
#include "arith/subtract.hpp"
#include "bitstream/correlation.hpp"
#include "bitstream/synthesis.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"
#include "test_util.hpp"

namespace sc::arith {
namespace {

constexpr double kLsb = 1.0 / 256.0;

// --- gates -------------------------------------------------------------------

TEST(Gates, NamedWrappersMatchOperators) {
  const Bitstream x = Bitstream::from_string("1100");
  const Bitstream y = Bitstream::from_string("1010");
  EXPECT_EQ(and_gate(x, y), x & y);
  EXPECT_EQ(or_gate(x, y), x | y);
  EXPECT_EQ(xor_gate(x, y), x ^ y);
  EXPECT_EQ(xnor_gate(x, y), ~(x ^ y));
  EXPECT_EQ(not_gate(x), ~x);
}

TEST(Gates, MuxSelectsPerBit) {
  const Bitstream x = Bitstream::from_string("1111");
  const Bitstream y = Bitstream::from_string("0000");
  const Bitstream sel = Bitstream::from_string("0101");
  EXPECT_EQ(mux_gate(x, y, sel).to_string(), "1010");
}

// --- multiply ------------------------------------------------------------------

class MultiplySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(MultiplySweep, UncorrelatedVdcHaltonIsAccurate) {
  // The paper's canonical uncorrelated configuration: VDC x Halton-3.
  const auto [lx, ly] = GetParam();
  const Bitstream x = test::vdc_stream(lx);
  const Bitstream y = test::halton3_stream(ly);
  const Bitstream z = multiply(x, y);
  EXPECT_NEAR(z.value(), (lx / 256.0) * (ly / 256.0), 6 * kLsb);
}

TEST_P(MultiplySweep, PositiveCorrelationBreaksMultiply) {
  // Table I: at SCC = +1 an AND computes min, not the product.
  const auto [lx, ly] = GetParam();
  const auto pair = make_positively_correlated(lx, ly, 256);
  const Bitstream z = multiply(pair.x, pair.y);
  EXPECT_NEAR(z.value(), std::min(lx, ly) / 256.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    ValueGrid, MultiplySweep,
    ::testing::Combine(::testing::Values(32u, 64u, 128u, 192u, 224u),
                       ::testing::Values(48u, 96u, 160u, 208u)));

TEST(Multiply, BipolarXnorOnUncorrelatedStreams) {
  // bipolar(x) = 0, bipolar(y) = 0.5 -> product 0: XNOR of uncorrelated
  // streams with px = 0.5, py = 0.75.
  const Bitstream x = test::vdc_stream(128);
  const Bitstream y = test::halton3_stream(192);
  const Bitstream z = multiply_bipolar(x, y);
  EXPECT_NEAR(z.bipolar_value(), x.bipolar_value() * y.bipolar_value(),
              8 * kLsb);
}

TEST(Multiply, ByZeroAndByOne) {
  const Bitstream x = test::vdc_stream(100);
  EXPECT_EQ(multiply(x, Bitstream(256, false)).count_ones(), 0u);
  EXPECT_EQ(multiply(x, Bitstream(256, true)), x);
}

// --- scaled add -----------------------------------------------------------------

class ScaledAddSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(ScaledAddSweep, HalvesSumWithUncorrelatedSelect) {
  const auto [lx, ly] = GetParam();
  const Bitstream x = test::vdc_stream(lx);
  const Bitstream y = test::halton3_stream(ly);
  rng::Lfsr sel_src(8, 55);
  const Bitstream z = scaled_add(x, y, sel_src);
  EXPECT_NEAR(z.value(), 0.5 * (lx + ly) / 256.0, 10 * kLsb);
}

INSTANTIATE_TEST_SUITE_P(
    ValueGrid, ScaledAddSweep,
    ::testing::Combine(::testing::Values(0u, 64u, 128u, 255u),
                       ::testing::Values(32u, 128u, 192u, 256u)));

TEST(ScaledAdd, ExplicitSelectStream) {
  const Bitstream x(256, true);
  const Bitstream y(256, false);
  const Bitstream sel = test::vdc_stream(128);
  EXPECT_NEAR(scaled_add(x, y, sel).value(), 0.5, 1e-12);
}

// --- toggle (correlation-agnostic) adder ---------------------------------------

class ToggleAddSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, double>> {
};

TEST_P(ToggleAddSweep, ExactWithinOneLsbAtAnyCorrelation) {
  const auto [lx, ly, target_scc] = GetParam();
  const auto pair = make_pair_with_scc(lx, ly, 256, target_scc);
  const Bitstream z = toggle_add(pair.x, pair.y);
  // ones(z) = a + round_half(b + c): within 1 bit of the exact scaled sum.
  EXPECT_NEAR(z.value(), 0.5 * (lx + ly) / 256.0, kLsb);
}

INSTANTIATE_TEST_SUITE_P(
    ValueAndCorrelationGrid, ToggleAddSweep,
    ::testing::Combine(::testing::Values(32u, 128u, 200u),
                       ::testing::Values(64u, 128u, 224u),
                       ::testing::Values(-1.0, -0.5, 0.0, 0.5, 1.0)));

TEST(ToggleAdder, PerCycleSemantics) {
  ToggleAdder adder;
  // Differing inputs alternate 1, 0, 1, ...
  EXPECT_TRUE(adder.step(true, false));
  EXPECT_FALSE(adder.step(false, true));
  EXPECT_TRUE(adder.step(true, false));
  // Agreement passes through without consuming the toggle.
  EXPECT_TRUE(adder.step(true, true));
  EXPECT_FALSE(adder.step(false, false));
  EXPECT_FALSE(adder.step(false, true));
}

// --- saturating add -------------------------------------------------------------

TEST(SaturatingAdd, ExactAtSccMinusOne) {
  for (std::uint32_t lx : {40u, 100u, 160u}) {
    for (std::uint32_t ly : {60u, 120u, 220u}) {
      const auto pair = make_negatively_correlated(lx, ly, 256);
      const Bitstream z = saturating_add(pair.x, pair.y);
      EXPECT_NEAR(z.value(), std::min(1.0, (lx + ly) / 256.0), 1e-12)
          << lx << "," << ly;
    }
  }
}

TEST(SaturatingAdd, UnderestimatesWithoutNegativeCorrelation) {
  // At SCC = +1 the OR computes max, far below the saturating sum.
  const auto pair = make_positively_correlated(128, 128, 256);
  EXPECT_NEAR(saturating_add(pair.x, pair.y).value(), 0.5, 1e-12);
}

// --- subtract --------------------------------------------------------------------

class SubtractSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(SubtractSweep, AbsoluteDifferenceAtSccPlusOne) {
  const auto [lx, ly] = GetParam();
  const auto pair = make_positively_correlated(lx, ly, 256);
  const Bitstream z = subtract_abs(pair.x, pair.y);
  EXPECT_NEAR(z.value(), std::abs(static_cast<int>(lx) - static_cast<int>(ly)) / 256.0,
              1e-12);
}

TEST_P(SubtractSweep, OverestimatesWhenUncorrelated) {
  const auto [lx, ly] = GetParam();
  if (lx == ly) return;  // difference 0 trivially overestimated; skip
  const auto pair = make_uncorrelated(lx, ly, 256);
  const double exact = std::abs(static_cast<int>(lx) - static_cast<int>(ly)) / 256.0;
  // XOR on independent streams computes px + py - 2 px py >= |px - py|,
  // with equality only when either operand sits at a rail (0 or 1).
  const bool at_rail = lx <= 8 || lx >= 248 || ly <= 8 || ly >= 248;
  if (at_rail) {
    EXPECT_GE(subtract_abs(pair.x, pair.y).value(), exact - 1e-12);
  } else {
    EXPECT_GT(subtract_abs(pair.x, pair.y).value(), exact);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ValueGrid, SubtractSweep,
    ::testing::Combine(::testing::Values(32u, 96u, 160u, 255u),
                       ::testing::Values(16u, 96u, 128u, 240u)));

// --- divide ----------------------------------------------------------------------

class DivideSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(DivideSweep, QuotientWithCorrelatedOperands) {
  const auto [lx, ly] = GetParam();
  if (lx > ly || ly == 0) return;
  // Correlated operands from one shared ramp source (subset property).
  rng::VanDerCorput vdc(8);
  Bitstream x, y;
  for (int i = 0; i < 256; ++i) {
    const std::uint32_t r = vdc.next();
    x.push_back(r < lx);
    y.push_back(r < ly);
  }
  const Bitstream z = divide(x, y);
  // CORDIV's held-bit replay quantizes the quotient estimate; its error
  // floor is a few percent (consistent with ref [6]).
  EXPECT_NEAR(z.value(), static_cast<double>(lx) / ly, 0.09)
      << lx << "/" << ly;
}

INSTANTIATE_TEST_SUITE_P(
    ValueGrid, DivideSweep,
    ::testing::Combine(::testing::Values(16u, 64u, 128u, 192u),
                       ::testing::Values(128u, 192u, 255u)));

TEST(Cordiv, HoldsLastQuotientBitWhenDenominatorZero) {
  Cordiv div;
  EXPECT_TRUE(div.step(true, true));    // quotient bit 1, held
  EXPECT_TRUE(div.step(false, false));  // y = 0: replay held bit
  EXPECT_FALSE(div.step(false, true));  // quotient bit 0, held
  EXPECT_FALSE(div.step(true, false));  // y = 0: replay held 0
}

// --- min / max baselines -----------------------------------------------------------

TEST(OrMax, ExactAtSccPlusOne) {
  const auto pair = make_positively_correlated(90, 170, 256);
  EXPECT_NEAR(or_max(pair.x, pair.y).value(), 170.0 / 256.0, 1e-12);
}

TEST(OrMax, OvershootsWhenUncorrelated) {
  const auto pair = make_uncorrelated(90, 170, 256);
  EXPECT_GT(or_max(pair.x, pair.y).value(), 170.0 / 256.0);
}

TEST(AndMin, ExactAtSccPlusOne) {
  const auto pair = make_positively_correlated(90, 170, 256);
  EXPECT_NEAR(and_min(pair.x, pair.y).value(), 90.0 / 256.0, 1e-12);
}

TEST(AndMin, UndershootsWhenUncorrelated) {
  const auto pair = make_uncorrelated(90, 170, 256);
  EXPECT_LT(and_min(pair.x, pair.y).value(), 90.0 / 256.0);
}

class CaMinMaxSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, double>> {
};

TEST_P(CaMinMaxSweep, AccurateAtAnyCorrelation) {
  const auto [lx, ly, target_scc] = GetParam();
  const auto pair = make_pair_with_scc(lx, ly, 256, target_scc);
  const double px = lx / 256.0;
  const double py = ly / 256.0;
  EXPECT_NEAR(ca_max(pair.x, pair.y).value(), std::max(px, py), 0.05);
  EXPECT_NEAR(ca_min(pair.x, pair.y).value(), std::min(px, py), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    ValueAndCorrelationGrid, CaMinMaxSweep,
    ::testing::Combine(::testing::Values(48u, 128u, 208u),
                       ::testing::Values(80u, 144u, 240u),
                       ::testing::Values(-1.0, 0.0, 1.0)));

TEST(CaMax, MinPlusMaxConservesOnesPerCycle) {
  // Steering sends each cycle's bits to one output or the other; across
  // min and max units fed identically, ones are conserved.
  const auto pair = make_uncorrelated(100, 180, 256, 99);
  const Bitstream mx = ca_max(pair.x, pair.y);
  const Bitstream mn = ca_min(pair.x, pair.y);
  EXPECT_EQ(mx.count_ones() + mn.count_ones(),
            pair.x.count_ones() + pair.y.count_ones());
}

TEST(SequentialUnits, UnequalLengthsThrow) {
  // Checked in every build mode: with an assert-only guard, dividing a
  // 2^20-bit x by a 64-bit y read past y and returned 2^20 bits.
  const Bitstream long_stream(std::size_t{1} << 20);
  const Bitstream short_stream(64);
  for (const auto unit : {&divide, &toggle_add, &ca_max, &ca_min}) {
    EXPECT_THROW(unit(long_stream, short_stream), std::invalid_argument);
    EXPECT_THROW(unit(short_stream, long_stream), std::invalid_argument);
  }
}

}  // namespace
}  // namespace sc::arith
