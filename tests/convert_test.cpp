/// Tests for converters: comparator SNG (D/S), counter S/D, APC, and the
/// regeneration baseline.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bitstream/correlation.hpp"
#include "convert/apc.hpp"
#include "convert/regenerator.hpp"
#include "convert/sd_converter.hpp"
#include "convert/sng.hpp"
#include "rng/counter_source.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"
#include "test_util.hpp"

namespace sc::convert {
namespace {

TEST(Sng, NaturalLengthIsSourcePeriod) {
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  EXPECT_EQ(sng.natural_length(), 256u);
}

class SngVdcExactness : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SngVdcExactness, VdcEncodesEveryLevelExactly) {
  // A full-period VDC drive makes the comparator SNG exact for all levels.
  const std::uint32_t level = GetParam();
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  const Bitstream s = sng.generate(level, 256);
  EXPECT_EQ(s.count_ones(), level);
}

INSTANTIATE_TEST_SUITE_P(Levels, SngVdcExactness,
                         ::testing::Values(0u, 1u, 2u, 17u, 64u, 127u, 128u,
                                           129u, 200u, 255u, 256u));

TEST(Sng, CounterSourceGivesRampStream) {
  Sng sng(std::make_unique<rng::CounterSource>(3));
  const Bitstream s = sng.generate(5, 8);
  EXPECT_EQ(s.to_string(), "11111000");
}

TEST(Sng, LfsrValueAccurateOverFullPeriod) {
  // Over its 255-cycle period the LFSR emits each nonzero value once, so
  // ones(level) = level - 1 for level >= 1 at n = 255 (r < level misses 0).
  Sng sng(std::make_unique<rng::Lfsr>(8, 1));
  const Bitstream s = sng.generate(128, 255);
  EXPECT_EQ(s.count_ones(), 127u);
}

TEST(Sng, HaltonValueCloseForAnyLevel) {
  Sng sng(std::make_unique<rng::Halton>(8, 3));
  for (std::uint32_t level : {32u, 100u, 180u, 256u}) {
    sng.reset();
    const Bitstream s = sng.generate(level, 256);
    EXPECT_NEAR(s.value(), level / 256.0, 4.0 / 256.0) << level;
  }
}

TEST(Sng, GenerateValueQuantizes) {
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  const Bitstream s = sng.generate_value(0.5, 256);
  EXPECT_EQ(s.count_ones(), 128u);
}

TEST(Sng, Width32SourceProducesNonZeroStreams) {
  // Regression: a 32-bit-wide source has period 2^32, which truncated to 0
  // in a uint32 natural length — every comparator test then failed and
  // generate_value() emitted all-zero streams.
  Sng sng(std::make_unique<rng::Lfsr>(32, 0xDEADBEEF));
  EXPECT_EQ(sng.natural_length(), std::uint64_t{1} << 32);
  const Bitstream ones = sng.generate_value(1.0, 128);
  EXPECT_EQ(ones.count_ones(), 128u);
  const Bitstream half = sng.generate_value(0.5, 1u << 14);
  EXPECT_NEAR(half.value(), 0.5, 0.02);
}

TEST(Sng, NullSourceThrows) {
  // The natural length reads the source's width: a null source crashed
  // in the constructor before its assert could run.
  EXPECT_THROW(Sng(nullptr), std::invalid_argument);
}

TEST(Sng, LevelAboveTheNaturalLengthThrows) {
  // Release builds returned an all-ones stream for any level past 2^8.
  Sng sng(std::make_unique<rng::Lfsr>(8, 1));
  EXPECT_THROW(sng.generate(1000, 64), std::invalid_argument);
  EXPECT_THROW(sng.generate(257, 64), std::invalid_argument);
  EXPECT_EQ(sng.generate(256, 64).count_ones(), 64u);
}

TEST(Sng, SameSourceTwoStreamsPositivelyCorrelated) {
  // Two levels encoded from one shared RNG trace: SCC = +1 (paper §II-B).
  rng::VanDerCorput vdc(8);
  Bitstream x, y;
  for (int i = 0; i < 256; ++i) {
    const std::uint32_t r = vdc.next();
    x.push_back(r < 100);
    y.push_back(r < 200);
  }
  EXPECT_DOUBLE_EQ(scc(x, y), 1.0);
}

TEST(Sng, StepMatchesGenerate) {
  Sng a(std::make_unique<rng::Lfsr>(8, 9));
  Sng b(std::make_unique<rng::Lfsr>(8, 9));
  const Bitstream whole = a.generate(77, 64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(b.step(77), whole.get(i)) << i;
  }
}

// --- S/D ---------------------------------------------------------------------

TEST(SdConverter, CountsOnes) {
  SdConverter sd;
  const Bitstream s = Bitstream::from_string("1101000101");
  for (std::size_t i = 0; i < s.size(); ++i) sd.step(s.get(i));
  EXPECT_EQ(sd.count(), 5u);
  EXPECT_EQ(sd.cycles(), 10u);
  EXPECT_DOUBLE_EQ(sd.value(), 0.5);
}

TEST(SdConverter, ResetClears) {
  SdConverter sd;
  sd.step(true);
  sd.reset();
  EXPECT_EQ(sd.count(), 0u);
  EXPECT_DOUBLE_EQ(sd.value(), 0.0);
}

TEST(SdConverter, WholeStreamHelper) {
  EXPECT_EQ(to_binary(Bitstream::from_string("11110001")), 5u);
}

TEST(SdConverter, RoundTripWithSng) {
  // D/S then S/D recovers the level exactly with a VDC source.
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  for (std::uint32_t level : {0u, 3u, 128u, 251u, 256u}) {
    sng.reset();
    EXPECT_EQ(to_binary(sng.generate(level, 256)), level);
  }
}

// --- APC ----------------------------------------------------------------------

TEST(Apc, SumsParallelInputs) {
  Apc apc(3);
  const std::array<bool, 3> cycle1 = {true, true, false};
  const std::array<bool, 3> cycle2 = {false, true, false};
  apc.step(cycle1);
  apc.step(cycle2);
  EXPECT_EQ(apc.sum(), 3u);
  EXPECT_EQ(apc.cycles(), 2u);
  EXPECT_DOUBLE_EQ(apc.mean_value(), 0.5);
}

TEST(Apc, MeanValueExactAtEngineScaleCycleCounts) {
  // The denominator inputs * cycles is formed in floating point; drive a
  // long-stream-sized cycle count and require the exact mean (2/3 here is
  // representable error-free relative to the 2^21-cycle sum).
  Apc apc(3);
  const std::array<bool, 3> cycle = {true, true, false};
  const std::size_t cycles = std::size_t{1} << 21;
  for (std::size_t i = 0; i < cycles; ++i) apc.step(cycle);
  EXPECT_EQ(apc.cycles(), cycles);
  EXPECT_EQ(apc.sum(), 2 * cycles);
  EXPECT_DOUBLE_EQ(apc.mean_value(), 2.0 / 3.0);
}

TEST(Apc, ScaledSumExactAtEngineScaleLengths) {
  const std::size_t n = std::size_t{1} << 21;
  std::vector<Bitstream> streams;
  streams.push_back(Bitstream(n, true));   // 1.0
  streams.push_back(Bitstream(n, false));  // 0.0
  Bitstream half(n);
  for (std::size_t i = 0; i < n; i += 2) half.set(i, true);
  streams.push_back(std::move(half));      // 0.5
  EXPECT_DOUBLE_EQ(apc_scaled_sum(streams), 0.5);
}

TEST(Apc, WholeStreamScaledSumIsExact) {
  // APC addition has no MUX sampling noise: it is the exact mean.
  const std::vector<Bitstream> streams = {
      Bitstream::from_string("11110000"),  // 0.5
      Bitstream::from_string("11000000"),  // 0.25
      Bitstream::from_string("11111100"),  // 0.75
  };
  EXPECT_DOUBLE_EQ(apc_scaled_sum(streams), 0.5);
}

TEST(Apc, EmptyInputsGiveZero) {
  EXPECT_DOUBLE_EQ(apc_scaled_sum({}), 0.0);
  Apc apc(2);
  EXPECT_DOUBLE_EQ(apc.mean_value(), 0.0);
}

TEST(Apc, StepRejectsTheWrongBitCount) {
  Apc apc(2);
  const std::array<bool, 3> three = {true, true, true};
  EXPECT_THROW(apc.step(three), std::invalid_argument);
  EXPECT_EQ(apc.cycles(), 0u);
}

TEST(Apc, ScaledSumRejectsUnequalLengths) {
  // Release builds returned 1.5 for these two all-ones streams.
  const std::vector<Bitstream> streams = {Bitstream(4, true),
                                          Bitstream(8, true)};
  EXPECT_THROW(apc_scaled_sum(streams), std::invalid_argument);
}

// --- regeneration ----------------------------------------------------------------

TEST(Regenerator, PreservesValueWithVdc) {
  const Bitstream input = test::lfsr_stream(100, 1);
  rng::VanDerCorput vdc(8);
  const Bitstream out = regenerate(input, vdc);
  EXPECT_EQ(out.count_ones(), input.count_ones());
  EXPECT_EQ(out.size(), input.size());
}

TEST(Regenerator, ResetsCorrelationBetweenStreams) {
  // Two maximally correlated inputs regenerated with *different* sources
  // become nearly uncorrelated.
  const Bitstream x = test::lfsr_stream(100, 1);
  const Bitstream y = test::lfsr_stream(200, 1);
  ASSERT_GT(scc(x, y), 0.9);
  rng::VanDerCorput vdc(8);
  rng::Halton halton(8, 3);
  const Bitstream xr = regenerate(x, vdc);
  const Bitstream yr = regenerate(y, halton);
  EXPECT_LT(std::abs(scc(xr, yr)), 0.2);
}

TEST(Regenerator, BusCorrelatedSharedRngGivesSccPlusOne) {
  // The paper's regeneration mode: one RNG re-encodes the whole bus, so
  // every pair is maximally positively correlated.
  const std::vector<Bitstream> inputs = {
      test::vdc_stream(60), test::halton3_stream(150), test::lfsr_stream(220)};
  rng::Lfsr shared(8, 41);
  const auto outputs = regenerate_bus_correlated(inputs, shared);
  ASSERT_EQ(outputs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(outputs[i].value(), inputs[i].value(), 2.0 / 256.0);
  }
  EXPECT_DOUBLE_EQ(scc(outputs[0], outputs[1]), 1.0);
  EXPECT_DOUBLE_EQ(scc(outputs[0], outputs[2]), 1.0);
  EXPECT_DOUBLE_EQ(scc(outputs[1], outputs[2]), 1.0);
}

TEST(Regenerator, BusUncorrelatedPerStreamSources) {
  // Decorrelating regeneration of a bus: one regenerate() per stream, each
  // with its own source.
  const Bitstream x = test::lfsr_stream(128, 3);
  const Bitstream y = test::lfsr_stream(128, 3);
  ASSERT_DOUBLE_EQ(scc(x, y), 1.0);
  rng::VanDerCorput vdc(8);
  rng::Halton halton(8, 3);
  const Bitstream xr = regenerate(x, vdc);
  const Bitstream yr = regenerate(y, halton);
  EXPECT_LT(std::abs(scc(xr, yr)), 0.2);
}

TEST(Regenerator, BusCorrelatedRejectsUnequalLengths) {
  // Without the check, every output would silently take the first
  // stream's length.
  const std::vector<Bitstream> inputs = {test::lfsr_stream(128, 3),
                                         Bitstream(300)};
  rng::Lfsr shared(8, 41);
  EXPECT_THROW(regenerate_bus_correlated(inputs, shared),
               std::invalid_argument);
}

/// The per-bit regeneration loops as they stood before the word forms:
/// one next() per cycle, one compare and one push_back per bit.
Bitstream regenerate_oracle(const Bitstream& input,
                            rng::RandomSource& source) {
  const std::size_t n = input.size();
  const std::uint64_t ones = input.count_ones();
  std::uint64_t level = 0;
  if (n != 0) {
    level = (ones * source.range() + n / 2) / n;
  }
  Bitstream out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(source.next() < level);
  }
  return out;
}

std::vector<Bitstream> regenerate_bus_oracle(
    const std::vector<Bitstream>& inputs, rng::RandomSource& shared_source) {
  std::vector<Bitstream> out;
  if (inputs.empty()) return out;
  const std::size_t n = inputs.front().size();
  std::vector<std::uint32_t> trace(n);
  for (std::size_t i = 0; i < n; ++i) trace[i] = shared_source.next();
  for (const Bitstream& input : inputs) {
    const std::uint64_t ones = input.count_ones();
    const std::uint64_t level =
        n == 0 ? 0 : (ones * shared_source.range() + n / 2) / n;
    Bitstream stream;
    stream.reserve(n);
    for (std::size_t i = 0; i < n; ++i) stream.push_back(trace[i] < level);
    out.push_back(std::move(stream));
  }
  return out;
}

TEST(Regenerator, MatchesThePerBitOracleDrawForDraw) {
  // LFSR widths 3..32 (plain, and rotated past the orbit-table widths'
  // identity copy), and the low-discrepancy and counter sources.  The
  // all-ones input regenerates at full scale: level 2^32 at width 32.
  std::vector<rng::RandomSourcePtr> prototypes;
  prototypes.push_back(std::make_unique<rng::Lfsr>(3, 5));
  prototypes.push_back(std::make_unique<rng::Lfsr>(8, 41));
  prototypes.push_back(std::make_unique<rng::Lfsr>(16, 0xACE1, 5));
  prototypes.push_back(std::make_unique<rng::Lfsr>(32, 0xDEADBEEF));
  prototypes.push_back(std::make_unique<rng::VanDerCorput>(8));
  prototypes.push_back(std::make_unique<rng::Halton>(8, 3));
  prototypes.push_back(std::make_unique<rng::CounterSource>(8));
  for (const std::size_t n : {0, 1, 63, 64, 65, 1000}) {
    std::vector<Bitstream> inputs = {Bitstream(n), Bitstream(n, true),
                                     Bitstream(n), Bitstream(n)};
    for (std::size_t i = 0; i < n; ++i) {
      inputs[2].set(i, (i * 7 + 3) % 5 < 2);
      inputs[3].set(i, i % 3 == 0);
    }
    for (const rng::RandomSourcePtr& prototype : prototypes) {
      const rng::RandomSourcePtr word = prototype->clone();
      const rng::RandomSourcePtr oracle = prototype->clone();
      for (const Bitstream& input : inputs) {
        EXPECT_EQ(regenerate(input, *word), regenerate_oracle(input, *oracle))
            << prototype->name() << " n=" << n;
        // Exactly n draws: the sources continue in step.
        EXPECT_EQ(word->next(), oracle->next())
            << prototype->name() << " n=" << n;
      }
      EXPECT_EQ(regenerate_bus_correlated(inputs, *word),
                regenerate_bus_oracle(inputs, *oracle))
          << prototype->name() << " n=" << n;
      EXPECT_EQ(word->next(), oracle->next())
          << prototype->name() << " n=" << n;
    }
  }
}

TEST(Regenerator, NonPowerOfTwoLengthRescalesLevel) {
  // 100 ones out of 200 bits -> level 128 of 256 -> value 0.5 preserved.
  Bitstream input(200);
  for (std::size_t i = 0; i < 100; ++i) input.set(i, true);
  rng::VanDerCorput vdc(8);
  const Bitstream out = regenerate(input, vdc);
  EXPECT_NEAR(out.value(), 0.5, 3.0 / 200.0);
}

}  // namespace
}  // namespace sc::convert
