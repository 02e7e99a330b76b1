/// Unit tests for the packed bitstream container: construction, encoding
/// values, word-parallel gates, and the paper's literal examples (Fig. 1,
/// §I/§II-A streams).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "bitstream/bitstream.hpp"
#include "bitstream/encoding.hpp"

namespace sc {
namespace {

TEST(Bitstream, DefaultIsEmpty) {
  Bitstream s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count_ones(), 0u);
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Bitstream, SizedConstructionZeroFill) {
  Bitstream s(100);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.count_ones(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(s.get(i));
}

TEST(Bitstream, SizedConstructionOneFill) {
  Bitstream s(100, true);
  EXPECT_EQ(s.count_ones(), 100u);
  EXPECT_DOUBLE_EQ(s.value(), 1.0);
}

TEST(Bitstream, OneFillClearsTailBits) {
  // 100 = 64 + 36: the second word's top 28 bits must stay clear so
  // count_ones and word-parallel ops are exact.
  Bitstream s(100, true);
  EXPECT_EQ(s.words().back() >> 36, 0u);
}

TEST(Bitstream, SetAndGetRoundTrip) {
  Bitstream s(130);
  s.set(0, true);
  s.set(64, true);
  s.set(129, true);
  EXPECT_TRUE(s.get(0));
  EXPECT_TRUE(s.get(64));
  EXPECT_TRUE(s.get(129));
  EXPECT_FALSE(s.get(1));
  EXPECT_EQ(s.count_ones(), 3u);
  s.set(64, false);
  EXPECT_FALSE(s.get(64));
  EXPECT_EQ(s.count_ones(), 2u);
}

TEST(Bitstream, PushBackGrowsAcrossWordBoundary) {
  Bitstream s;
  for (int i = 0; i < 70; ++i) s.push_back(i % 2 == 0);
  EXPECT_EQ(s.size(), 70u);
  EXPECT_EQ(s.count_ones(), 35u);
  EXPECT_TRUE(s.get(0));
  EXPECT_FALSE(s.get(69));
  EXPECT_TRUE(s.get(68));
}

TEST(Bitstream, FromStringMatchesPaperIntroExample) {
  // Paper §I: X = 01000100 encodes 0.25.
  const Bitstream x = Bitstream::from_string("01000100");
  EXPECT_EQ(x.size(), 8u);
  EXPECT_DOUBLE_EQ(x.value(), 0.25);
}

TEST(Bitstream, FromStringStopsAtInvalidCharacter) {
  const Bitstream x = Bitstream::from_string("0101 junk");
  EXPECT_EQ(x.size(), 4u);
}

TEST(Bitstream, FromBitsList) {
  const Bitstream x = Bitstream::from_bits({1, 0, 1, 1});
  EXPECT_EQ(x.to_string(), "1011");
}

TEST(Bitstream, ToStringRoundTrip) {
  const std::string pattern = "0110100110010110";
  EXPECT_EQ(Bitstream::from_string(pattern).to_string(), pattern);
}

TEST(Bitstream, UnipolarValueCountsOnes) {
  // Paper §II-A: X = 01100001 has value 3/8.
  EXPECT_DOUBLE_EQ(Bitstream::from_string("01100001").value(), 3.0 / 8.0);
}

TEST(Bitstream, BipolarValueMapsToSignedRange) {
  // Paper §II-A: X = 01100001 has bipolar value -1/4.
  EXPECT_DOUBLE_EQ(Bitstream::from_string("01100001").bipolar_value(), -0.25);
  EXPECT_DOUBLE_EQ(Bitstream(8, true).bipolar_value(), 1.0);
  EXPECT_DOUBLE_EQ(Bitstream(8, false).bipolar_value(), -1.0);
}

TEST(Bitstream, AndImplementsPaperMultiplyExample) {
  // Paper Fig. 1a: X = 01010101 (0.5), Y = 00111111 (0.75) -> 00010101.
  const Bitstream x = Bitstream::from_string("01010101");
  const Bitstream y = Bitstream::from_string("00111111");
  const Bitstream z = x & y;
  EXPECT_EQ(z.to_string(), "00010101");
  EXPECT_DOUBLE_EQ(z.value(), 0.375);
}

TEST(Bitstream, MuxImplementsPaperScaledAddExample) {
  // Paper Fig. 1b: X = 01110111 (0.75), Y = 11000000 (0.25),
  // R = 10100110 (0.5) -> Z = 11010001 (0.5); mux emits Y when R = 1.
  const Bitstream x = Bitstream::from_string("01110111");
  const Bitstream y = Bitstream::from_string("11000000");
  const Bitstream r = Bitstream::from_string("10100110");
  const Bitstream z = Bitstream::mux(x, y, r);
  EXPECT_EQ(z.to_string(), "11010001");
  EXPECT_DOUBLE_EQ(z.value(), 0.5);
}

TEST(Bitstream, OrOfDisjointStreamsAddsValues) {
  const Bitstream x = Bitstream::from_string("10100000");
  const Bitstream y = Bitstream::from_string("01010000");
  EXPECT_DOUBLE_EQ((x | y).value(), 0.5);
}

TEST(Bitstream, XorComputesDifferenceOnNestedStreams) {
  const Bitstream big = Bitstream::from_string("11110000");
  const Bitstream small = Bitstream::from_string("11000000");
  EXPECT_DOUBLE_EQ((big ^ small).value(), 0.25);
}

TEST(Bitstream, NotComplementsValue) {
  const Bitstream x = Bitstream::from_string("11100000");
  const Bitstream nx = ~x;
  EXPECT_DOUBLE_EQ(nx.value(), 1.0 - x.value());
  EXPECT_EQ((~nx), x);
}

TEST(Bitstream, NotKeepsTailClearOnPartialWord) {
  Bitstream x(70);
  const Bitstream nx = ~x;
  EXPECT_EQ(nx.count_ones(), 70u);  // not 128
  EXPECT_DOUBLE_EQ(nx.value(), 1.0);
}

TEST(Bitstream, CompoundAssignmentOperators) {
  Bitstream a = Bitstream::from_string("1100");
  const Bitstream b = Bitstream::from_string("1010");
  a &= b;
  EXPECT_EQ(a.to_string(), "1000");
  a |= b;
  EXPECT_EQ(a.to_string(), "1010");
  a ^= b;
  EXPECT_EQ(a.to_string(), "0000");
}

TEST(Bitstream, GatesWithMismatchedSizesThrow) {
  // The gates loop over one operand's words and index the other's: an
  // assert-only guard would read past the shorter stream under NDEBUG.
  const Bitstream long_ones(4096, true);
  const Bitstream short_ones(64, true);
  for (const auto& [a, b] : {std::pair{&long_ones, &short_ones},
                             std::pair{&short_ones, &long_ones}}) {
    EXPECT_THROW((void)(*a & *b), std::invalid_argument);
    EXPECT_THROW((void)(*a | *b), std::invalid_argument);
    EXPECT_THROW((void)(*a ^ *b), std::invalid_argument);
    Bitstream target = *a;
    EXPECT_THROW(target &= *b, std::invalid_argument);
    EXPECT_THROW(target |= *b, std::invalid_argument);
    EXPECT_THROW(target ^= *b, std::invalid_argument);
    EXPECT_EQ(target, *a);  // a rejected gate leaves its target alone
  }
  // Each mux operand alone can be the odd one out.
  const Bitstream& l = long_ones;
  const Bitstream& s = short_ones;
  EXPECT_THROW(Bitstream::mux(s, l, l), std::invalid_argument);
  EXPECT_THROW(Bitstream::mux(l, s, l), std::invalid_argument);
  EXPECT_THROW(Bitstream::mux(l, l, s), std::invalid_argument);
  EXPECT_THROW(Bitstream::mux(s, s, l), std::invalid_argument);
  EXPECT_EQ(Bitstream::mux(l, l, l), l);
}

TEST(Bitstream, EqualityComparesContentAndLength) {
  EXPECT_EQ(Bitstream::from_string("101"), Bitstream::from_string("101"));
  EXPECT_NE(Bitstream::from_string("101"), Bitstream::from_string("100"));
  EXPECT_NE(Bitstream::from_string("101"), Bitstream::from_string("1010"));
}

TEST(Bitstream, RotatedPreservesValue) {
  const Bitstream x = Bitstream::from_string("11010010");
  for (std::size_t k = 0; k <= 8; ++k) {
    EXPECT_EQ(x.rotated(k).count_ones(), x.count_ones()) << "k=" << k;
  }
  EXPECT_EQ(x.rotated(0), x);
  EXPECT_EQ(x.rotated(8), x);
  EXPECT_EQ(x.rotated(3).to_string(), "10010110");
}

TEST(Bitstream, DelayedShiftsBitsAndPads) {
  const Bitstream x = Bitstream::from_string("11010010");
  const Bitstream d = x.delayed(2);
  EXPECT_EQ(d.to_string(), "00110100");
  const Bitstream dp = x.delayed(2, true);
  EXPECT_EQ(dp.to_string(), "11110100");
}

TEST(Bitstream, DelayedBeyondLengthIsAllPad) {
  const Bitstream x = Bitstream::from_string("1111");
  EXPECT_EQ(x.delayed(10).count_ones(), 0u);
  EXPECT_EQ(x.delayed(10, true).count_ones(), 4u);
}

TEST(Bitstream, ClearEmptiesStream) {
  Bitstream x = Bitstream::from_string("1111");
  x.clear();
  EXPECT_TRUE(x.empty());
  x.push_back(true);
  EXPECT_EQ(x.size(), 1u);
  EXPECT_TRUE(x.get(0));
}

TEST(Encoding, UnipolarLevelRoundsToNearest) {
  EXPECT_EQ(unipolar_level(0.0, 256), 0u);
  EXPECT_EQ(unipolar_level(1.0, 256), 256u);
  EXPECT_EQ(unipolar_level(0.5, 256), 128u);
  EXPECT_EQ(unipolar_level(0.501, 256), 128u);
  EXPECT_EQ(unipolar_level(0.502, 256), 129u);
}

TEST(Encoding, UnipolarLevelClampsOutOfRange) {
  EXPECT_EQ(unipolar_level(-0.5, 256), 0u);
  EXPECT_EQ(unipolar_level(1.5, 256), 256u);
}

TEST(Encoding, BipolarLevelMapsSignedValues) {
  EXPECT_EQ(bipolar_level(-1.0, 256), 0u);
  EXPECT_EQ(bipolar_level(0.0, 256), 128u);
  EXPECT_EQ(bipolar_level(1.0, 256), 256u);
}

TEST(Encoding, ValueLevelRoundTrip) {
  for (std::uint32_t level = 0; level <= 256; ++level) {
    EXPECT_EQ(unipolar_level(unipolar_value(level, 256), 256), level);
  }
}

TEST(Encoding, QuantumIsLsbWeight) {
  EXPECT_DOUBLE_EQ(quantum(256), 1.0 / 256.0);
  EXPECT_DOUBLE_EQ(quantum(0), 0.0);
}

}  // namespace
}  // namespace sc
