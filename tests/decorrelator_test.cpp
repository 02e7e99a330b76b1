/// Tests for the decorrelation circuits: the shuffle buffer and
/// decorrelator (paper Fig. 4) plus the isolator and TFM baselines of
/// Table II.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "bitstream/correlation.hpp"
#include "bitstream/synthesis.hpp"
#include "core/decorrelator.hpp"
#include "core/isolator.hpp"
#include "core/pair_transform.hpp"
#include "core/shuffle_buffer.hpp"
#include "core/tfm.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/mt_source.hpp"
#include "rng/van_der_corput.hpp"
#include "test_util.hpp"

namespace sc::core {
namespace {

std::unique_ptr<rng::Lfsr> aux(std::uint32_t seed) {
  return std::make_unique<rng::Lfsr>(8, seed);
}

// --- shuffle buffer -----------------------------------------------------------

TEST(ShuffleBuffer, InvalidConfigsThrow) {
  // A null source would be dereferenced on the first step() in Release.
  EXPECT_THROW(ShuffleBuffer(8, nullptr), std::invalid_argument);
  EXPECT_THROW(ShuffleBuffer(0, aux(3)), std::invalid_argument);
  EXPECT_THROW(Decorrelator(8, aux(3), nullptr), std::invalid_argument);
  EXPECT_THROW(DecorrelatorChainLink(8, nullptr), std::invalid_argument);
}

TEST(ShuffleBuffer, InitializedHalfOnes) {
  ShuffleBuffer buf(8, aux(3));
  EXPECT_EQ(buf.saved_ones(), 4u);
  ShuffleBuffer small(1, aux(3));
  EXPECT_EQ(small.saved_ones(), 0u);  // floor(1/2)
}

TEST(ShuffleBuffer, ConservesOnesUpToBufferContents) {
  ShuffleBuffer buf(8, aux(5));
  const unsigned initial_ones = buf.saved_ones();
  const Bitstream in = test::vdc_stream(100);
  const Bitstream out = apply(buf, in);
  // Every 1 either leaves through the output or stays in the buffer.
  EXPECT_EQ(out.count_ones() + buf.saved_ones(),
            in.count_ones() + initial_ones);
}

TEST(ShuffleBuffer, PreservesValueApproximately) {
  for (std::uint32_t level : {32u, 128u, 224u}) {
    ShuffleBuffer buf(8, aux(7));
    const Bitstream out = apply(buf, test::vdc_stream(level));
    EXPECT_NEAR(out.value(), level / 256.0, 8.0 / 256.0) << level;
  }
}

TEST(ShuffleBuffer, ReordersBitsOfAStream) {
  ShuffleBuffer buf(8, aux(11));
  const Bitstream in = test::vdc_stream(128);
  const Bitstream out = apply(buf, in);
  EXPECT_NE(out, in);
}

TEST(ShuffleBuffer, ResetRestoresInitialBufferAndSource) {
  ShuffleBuffer buf(8, aux(13));
  const Bitstream in = test::vdc_stream(90);
  const Bitstream first = apply(buf, in);
  buf.reset();
  const Bitstream second = apply(buf, in);
  EXPECT_EQ(first, second);
}

TEST(ShuffleBuffer, DepthOneStillMixes) {
  ShuffleBuffer buf(1, aux(17));
  const Bitstream in = test::vdc_stream(128);
  const Bitstream out = apply(buf, in);
  EXPECT_EQ(out.size(), in.size());
  EXPECT_NEAR(out.value(), in.value(), 2.0 / 256.0);
}

// --- decorrelator ----------------------------------------------------------------

TEST(Decorrelator, BreaksMaximalPositiveCorrelation) {
  // Paper Table II: same-RNG pairs (SCC ~0.99) drop to near 0.
  const Bitstream x = test::lfsr_stream(100, 1);
  const Bitstream y = test::lfsr_stream(200, 1);
  ASSERT_GT(scc(x, y), 0.95);
  Decorrelator dec(8, aux(19), aux(37));
  const auto out = apply(dec, x, y);
  EXPECT_LT(std::abs(scc(out.x, out.y)), 0.35);
}

TEST(Decorrelator, PreservesBothValues) {
  const Bitstream x = test::lfsr_stream(80, 1);
  const Bitstream y = test::lfsr_stream(190, 1);
  Decorrelator dec(8, aux(19), aux(37));
  const auto out = apply(dec, x, y);
  EXPECT_NEAR(out.x.value(), x.value(), 8.0 / 256.0);
  EXPECT_NEAR(out.y.value(), y.value(), 8.0 / 256.0);
}

TEST(Decorrelator, DeeperBuffersDecorrelateMore) {
  // Average |SCC| over a value grid should not grow with depth.
  double prev = 2.0;
  for (std::size_t depth : {2u, 4u, 8u, 16u}) {
    double total = 0.0;
    int count = 0;
    for (std::uint32_t lx = 48; lx <= 208; lx += 40) {
      for (std::uint32_t ly = 48; ly <= 208; ly += 40) {
        Decorrelator dec(depth, aux(19), aux(37));
        const auto out =
            apply(dec, test::lfsr_stream(lx, 1), test::lfsr_stream(ly, 1));
        if (!scc_defined(out.x, out.y)) continue;
        total += std::abs(scc(out.x, out.y));
        ++count;
      }
    }
    const double average = total / count;
    EXPECT_LE(average, prev + 0.05) << "depth " << depth;
    prev = average;
  }
  EXPECT_LT(prev, 0.3);
}

TEST(Decorrelator, EnablesAccurateMultiplicationDownstream) {
  // The end-to-end payoff: AND of same-RNG streams computes min (wrong);
  // after decorrelation it computes the product.
  const Bitstream x = test::lfsr_stream(128, 1);
  const Bitstream y = test::lfsr_stream(192, 1);
  ASSERT_NEAR((x & y).value(), 0.5, 0.02);  // min, not product
  Decorrelator dec(16, aux(19), aux(37));
  const auto out = apply(dec, x, y);
  EXPECT_NEAR((out.x & out.y).value(), 0.5 * 0.75, 0.05);
}

TEST(Decorrelator, SameAuxSourcesDoNotDecorrelate) {
  // Negative control: identical aux schedules shuffle in lockstep, so a
  // same-RNG pair keeps most of its correlation.
  const Bitstream x = test::lfsr_stream(100, 1);
  const Bitstream y = test::lfsr_stream(200, 1);
  Decorrelator dec(8, aux(19), aux(19));
  const auto out = apply(dec, x, y);
  EXPECT_GT(scc(out.x, out.y), 0.8);
}

// --- isolator baseline --------------------------------------------------------------

TEST(DelayLine, DelaysByConfiguredCycles) {
  DelayLine line(2);
  const Bitstream in = Bitstream::from_string("10110000");
  const Bitstream out = apply(line, in);
  EXPECT_EQ(out.to_string(), "00101100");
}

TEST(DelayLine, ZeroDelayIsIdentity) {
  DelayLine line(0);
  const Bitstream in = Bitstream::from_string("1011");
  EXPECT_EQ(apply(line, in), in);
}

TEST(IsolatorPair, MatchesBitstreamDelayed) {
  IsolatorPair iso(3);
  const Bitstream x = test::vdc_stream(70);
  const Bitstream y = test::vdc_stream(170);
  const auto out = apply(iso, x, y);
  EXPECT_EQ(out.x, x);
  EXPECT_EQ(out.y, y.delayed(3));
}

TEST(IsolatorPair, EffectOnSccIsErratic) {
  // The paper's point (§II-B/Table II): isolators shift phase but keep bit
  // order, so the SCC after isolation is uncontrolled - sometimes it stays
  // high, sometimes it overshoots negative.  Verify it moved for a
  // same-source pair but document no sign guarantee.
  const Bitstream x = test::lfsr_stream(100, 1);
  const Bitstream y = test::lfsr_stream(200, 1);
  const double before = scc(x, y);
  IsolatorPair iso(1);
  const auto out = apply(iso, x, y);
  const double after = scc(out.x, out.y);
  EXPECT_LT(after, before);  // the delay perturbs maximal correlation
}

TEST(IsolatorPair, PreservesValueUpToEdgeBit) {
  IsolatorPair iso(1);
  const Bitstream x = test::vdc_stream(128);
  const Bitstream y = test::vdc_stream(128);
  const auto out = apply(iso, x, y);
  EXPECT_NEAR(out.y.value(), y.value(), 1.0 / 256.0);
}

// --- TFM baseline ---------------------------------------------------------------------

TrackingForecastMemory::Config tfm_config() {
  TrackingForecastMemory::Config config;
  config.precision = 8;
  config.shift = 3;
  return config;
}

TEST(Tfm, EstimateConvergesToStreamValue) {
  TrackingForecastMemory tfm(tfm_config(), aux(23));
  const Bitstream in = test::vdc_stream(192);
  apply(tfm, in);
  EXPECT_NEAR(tfm.estimate(), 0.75, 0.15);
}

TEST(Tfm, OutputValueTracksInput) {
  for (std::uint32_t level : {64u, 128u, 192u}) {
    TrackingForecastMemory tfm(tfm_config(), aux(29));
    const Bitstream out = apply(tfm, test::vdc_stream(level));
    EXPECT_NEAR(out.value(), level / 256.0, 0.12) << level;
  }
}

TEST(Tfm, RegenerationDecorrelatesPair) {
  const Bitstream x = test::lfsr_stream(110, 1);
  const Bitstream y = test::lfsr_stream(210, 1);
  ASSERT_GT(scc(x, y), 0.95);
  TfmPair pair(tfm_config(), aux(31), aux(47));
  const auto out = apply(pair, x, y);
  EXPECT_LT(scc(out.x, out.y), 0.8);  // weaker than the decorrelator
}

TEST(Tfm, ResetRestoresEstimateAndSource) {
  TrackingForecastMemory tfm(tfm_config(), aux(53));
  const Bitstream in = test::vdc_stream(100);
  const Bitstream first = apply(tfm, in);
  tfm.reset();
  const Bitstream second = apply(tfm, in);
  EXPECT_EQ(first, second);
}

TEST(Tfm, EstimateSaturatesWithinScale) {
  TrackingForecastMemory tfm(tfm_config(), aux(59));
  for (int i = 0; i < 512; ++i) tfm.step(true);
  EXPECT_LE(tfm.estimate(), 1.0);
  EXPECT_GT(tfm.estimate(), 0.95);
  for (int i = 0; i < 512; ++i) tfm.step(false);
  EXPECT_GE(tfm.estimate(), 0.0);
  EXPECT_LT(tfm.estimate(), 0.05);
}

TEST(Tfm, InvalidConfigsThrow) {
  using Config = TrackingForecastMemory::Config;
  const auto make = [](Config config, unsigned width) {
    return TrackingForecastMemory(config, std::make_unique<rng::Lfsr>(width));
  };
  EXPECT_THROW(TrackingForecastMemory(tfm_config(), nullptr),
               std::invalid_argument);
  // The aux width must equal the precision: wider pins the output near 0,
  // narrower near 1.
  EXPECT_THROW(make({8, 3, 0.5}, 16), std::invalid_argument);
  EXPECT_THROW(make({8, 3, 0.5}, 4), std::invalid_argument);
  EXPECT_THROW(TfmPair(tfm_config(), aux(31), std::make_unique<rng::Lfsr>(9)),
               std::invalid_argument);
  // 1 << precision overflows past 30; >> shift is undefined past 31.
  EXPECT_THROW(make({0, 3, 0.5}, 8), std::invalid_argument);
  EXPECT_THROW(make({31, 3, 0.5}, 31), std::invalid_argument);
  EXPECT_THROW(make({32, 3, 0.5}, 32), std::invalid_argument);
  EXPECT_THROW(make({8, 32, 0.5}, 8), std::invalid_argument);
  // The bounds themselves are valid.
  EXPECT_NO_THROW(make({30, 31, 0.5}, 30));
  EXPECT_NO_THROW(make({3, 0, 0.5}, 3));
}

// --- comparative ranking (paper Table II takeaway) ---------------------------------------

TEST(DecorrelationRanking, DecorrelatorBeatsIsolatorAndTfm) {
  // Average |SCC| after each technique on same-LFSR pairs over a value grid:
  // the paper finds decorrelator < TFM < isolator (Table II LFSR rows).
  double sum_dec = 0.0, sum_iso = 0.0, sum_tfm = 0.0;
  int count = 0;
  for (std::uint32_t lx = 48; lx <= 208; lx += 32) {
    for (std::uint32_t ly = 48; ly <= 208; ly += 32) {
      const Bitstream x = test::lfsr_stream(lx, 1);
      const Bitstream y = test::lfsr_stream(ly, 1);
      Decorrelator dec(8, aux(19), aux(37));
      IsolatorPair iso(1);
      TfmPair tfm(tfm_config(), aux(31), aux(47));
      const auto a = apply(dec, x, y);
      const auto b = apply(iso, x, y);
      const auto c = apply(tfm, x, y);
      sum_dec += std::abs(scc(a.x, a.y));
      sum_iso += std::abs(scc(b.x, b.y));
      sum_tfm += std::abs(scc(c.x, c.y));
      ++count;
    }
  }
  EXPECT_LT(sum_dec / count, sum_tfm / count);
  EXPECT_LT(sum_dec / count, sum_iso / count);
}

}  // namespace
}  // namespace sc::core
