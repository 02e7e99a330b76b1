/// Tests for the random-source substrate: LFSR maximal periods, Van der
/// Corput / Halton / Sobol low-discrepancy structure, counter and mt19937
/// sources, clone/reset semantics, and the factory.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rng/counter_source.hpp"
#include "rng/factory.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/mt_source.hpp"
#include "rng/sobol.hpp"
#include "rng/van_der_corput.hpp"

namespace sc::rng {
namespace {

// --- LFSR ------------------------------------------------------------------

class LfsrPeriod : public ::testing::TestWithParam<unsigned> {};

TEST_P(LfsrPeriod, IsMaximal) {
  const unsigned width = GetParam();
  Lfsr lfsr(width, 1);
  const std::uint64_t period = (std::uint64_t{1} << width) - 1;
  std::set<std::uint32_t> seen;
  for (std::uint64_t i = 0; i < period; ++i) {
    EXPECT_TRUE(seen.insert(lfsr.next()).second)
        << "state repeated before full period, width=" << width;
  }
  // After a full period the sequence restarts.
  Lfsr fresh(width, 1);
  EXPECT_EQ(lfsr.next(), fresh.next());
}

INSTANTIATE_TEST_SUITE_P(Widths3To16, LfsrPeriod,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u, 13u, 14u, 15u, 16u));

TEST(Lfsr, NeverEmitsZeroState) {
  Lfsr lfsr(8, 1);
  for (int i = 0; i < 300; ++i) EXPECT_NE(lfsr.next(), 0u);
}

TEST(Lfsr, ZeroSeedRemappedToOne) {
  Lfsr a(8, 0);
  Lfsr b(8, 1);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Lfsr, SeedIsMaskedToWidth) {
  Lfsr a(8, 0x101);  // low 8 bits = 0x01
  Lfsr b(8, 0x001);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Lfsr, DifferentSeedsGiveShiftedSequences) {
  Lfsr a(8, 1);
  Lfsr b(8, 77);
  std::vector<std::uint32_t> sa, sb;
  for (int i = 0; i < 32; ++i) {
    sa.push_back(a.next());
    sb.push_back(b.next());
  }
  EXPECT_NE(sa, sb);
}

TEST(Lfsr, RotationPermutesOutputBits) {
  Lfsr plain(8, 1, 0);
  Lfsr rotated(8, 1, 3);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t p = plain.next();
    const std::uint32_t r = rotated.next();
    EXPECT_EQ(r, ((p >> 3) | (p << 5)) & 0xFFu);
  }
}

TEST(Lfsr, ResetRestartsSequence) {
  Lfsr lfsr(8, 5);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(lfsr.next());
  lfsr.reset();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(lfsr.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Lfsr, ClonePreservesState) {
  Lfsr lfsr(8, 5);
  for (int i = 0; i < 7; ++i) lfsr.next();
  auto copy = lfsr.clone();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(copy->next(), lfsr.next());
}

TEST(Lfsr, MaximalTapsKnownValues) {
  // Width 8 taps {8,6,5,4} -> 0b10111000.
  EXPECT_EQ(Lfsr::maximal_taps(8), 0xB8u);
  // Width 3 taps {3,2} -> 0b110.
  EXPECT_EQ(Lfsr::maximal_taps(3), 0x6u);
}

// --- Van der Corput ----------------------------------------------------------

TEST(VanDerCorput, ReverseBitsKnownValues) {
  EXPECT_EQ(VanDerCorput::reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(VanDerCorput::reverse_bits(0b110, 3), 0b011u);
  EXPECT_EQ(VanDerCorput::reverse_bits(0x01, 8), 0x80u);
}

TEST(VanDerCorput, IsPermutationOfFullRange) {
  VanDerCorput vdc(8);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 256; ++i) EXPECT_TRUE(seen.insert(vdc.next()).second);
  EXPECT_EQ(*seen.rbegin(), 255u);
}

TEST(VanDerCorput, PrefixesAreBalanced) {
  // Low-discrepancy property: any 2^k-aligned prefix covers each dyadic
  // sub-interval equally; check halves over the first 128 outputs.
  VanDerCorput vdc(8);
  int low = 0;
  for (int i = 0; i < 128; ++i) low += (vdc.next() < 128) ? 1 : 0;
  EXPECT_EQ(low, 64);
}

TEST(VanDerCorput, OffsetShiftsPhase) {
  VanDerCorput a(8, 0);
  VanDerCorput b(8, 1);
  a.next();  // consume t = 0
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(VanDerCorput, RejectsOutOfRangeWidth) {
  // Checked in every build: width 0 drew nothing but zeros, and width 33
  // shifts a 32-bit mask past its width.
  EXPECT_THROW(VanDerCorput(0), std::invalid_argument);
  EXPECT_THROW(VanDerCorput(33), std::invalid_argument);
  EXPECT_NO_THROW(VanDerCorput(1));
  EXPECT_NO_THROW(VanDerCorput(32));
}

// --- Halton -----------------------------------------------------------------

TEST(Halton, RadicalInverseBase2MatchesBitReversal) {
  for (std::uint64_t t = 0; t < 64; ++t) {
    const double r = Halton::radical_inverse(t, 2);
    const auto scaled = static_cast<std::uint32_t>(r * 64.0);
    EXPECT_EQ(scaled, VanDerCorput::reverse_bits(static_cast<std::uint32_t>(t), 6));
  }
}

TEST(Halton, RadicalInverseBase3KnownValues) {
  EXPECT_DOUBLE_EQ(Halton::radical_inverse(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(Halton::radical_inverse(1, 3), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Halton::radical_inverse(2, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Halton::radical_inverse(3, 3), 1.0 / 9.0);
  EXPECT_DOUBLE_EQ(Halton::radical_inverse(4, 3), 1.0 / 9.0 + 1.0 / 3.0);
}

TEST(Halton, OutputsCoverRangeUniformly) {
  Halton h(8, 3);
  double sum = 0.0;
  const int samples = 729;  // 3^6 for balance
  for (int i = 0; i < samples; ++i) sum += h.next();
  const double mean = sum / samples;
  EXPECT_NEAR(mean, 127.5, 2.0);
}

TEST(Halton, StaysBelowRange) {
  Halton h(8, 3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(h.next(), 256u);
}

TEST(Halton, RejectsOutOfRangeWidthOrBase) {
  // Checked in every build: base 0 divides by zero in radical_inverse,
  // base 1 never leaves its loop, and width 32 would scale by 2^32.
  EXPECT_THROW(Halton(0, 3), std::invalid_argument);
  EXPECT_THROW(Halton(32, 3), std::invalid_argument);
  EXPECT_THROW(Halton(8, 0), std::invalid_argument);
  EXPECT_THROW(Halton(8, 1), std::invalid_argument);
  EXPECT_NO_THROW(Halton(1, 2));
  EXPECT_NO_THROW(Halton(31, 3));
}

TEST(Halton, ResetAndCloneSemantics) {
  Halton h(8, 3);
  for (int i = 0; i < 5; ++i) h.next();
  auto copy = h.clone();
  EXPECT_EQ(copy->next(), h.next());
  h.reset();
  Halton fresh(8, 3);
  EXPECT_EQ(h.next(), fresh.next());
}

// --- Sobol ------------------------------------------------------------------

TEST(Sobol, Dimension1IsBitReversalSequence) {
  Sobol sobol(8, 1);
  VanDerCorput vdc(8);
  // Gray-code Sobol dim 1 visits the same set per 2^k block as VDC; check
  // the full 256-block is a permutation and starts at 0.
  std::set<std::uint32_t> seen;
  EXPECT_EQ(sobol.next(), 0u);
  seen.insert(0);
  for (int i = 1; i < 256; ++i) EXPECT_TRUE(seen.insert(sobol.next()).second);
}

TEST(Sobol, RejectsOutOfRangeWidthOrDimension) {
  // Checked in every build: a dimension outside 1..kMaxDimension indexes
  // the direction-number table out of bounds.
  EXPECT_THROW(Sobol(0, 1), std::invalid_argument);
  EXPECT_THROW(Sobol(33, 1), std::invalid_argument);
  EXPECT_THROW(Sobol(8, Sobol::kMaxDimension + 1), std::invalid_argument);
  EXPECT_THROW(Sobol(8, 0), std::invalid_argument);
  EXPECT_NO_THROW(Sobol(1, 1));
  EXPECT_NO_THROW(Sobol(32, Sobol::kMaxDimension));
}

class SobolDimension : public ::testing::TestWithParam<unsigned> {};

TEST_P(SobolDimension, FullPeriodIsPermutation) {
  Sobol sobol(8, GetParam());
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(seen.insert(sobol.next()).second) << "dim=" << GetParam();
  }
}

TEST_P(SobolDimension, BalancedHalves) {
  Sobol sobol(8, GetParam());
  int low = 0;
  for (int i = 0; i < 128; ++i) low += (sobol.next() < 128) ? 1 : 0;
  EXPECT_EQ(low, 64) << "dim=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Dims, SobolDimension,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

// --- Counter / MT -------------------------------------------------------------

TEST(CounterSource, WrapsAtRange) {
  CounterSource ctr(3, 6);
  EXPECT_EQ(ctr.next(), 6u);
  EXPECT_EQ(ctr.next(), 7u);
  EXPECT_EQ(ctr.next(), 0u);
}

TEST(CounterSource, ResetRestoresStart) {
  CounterSource ctr(4, 3);
  ctr.next();
  ctr.next();
  ctr.reset();
  EXPECT_EQ(ctr.next(), 3u);
}

TEST(CounterSource, RejectsOutOfRangeWidth) {
  EXPECT_THROW(CounterSource(0), std::invalid_argument);
  EXPECT_THROW(CounterSource(33), std::invalid_argument);
  EXPECT_NO_THROW(CounterSource(1));
  EXPECT_NO_THROW(CounterSource(32));
}

TEST(Mt19937Source, RejectsOutOfRangeWidth) {
  EXPECT_THROW(Mt19937Source(0), std::invalid_argument);
  EXPECT_THROW(Mt19937Source(33), std::invalid_argument);
  EXPECT_NO_THROW(Mt19937Source(1));
  EXPECT_NO_THROW(Mt19937Source(32));
}

TEST(Mt19937Source, MaskedToWidth) {
  Mt19937Source src(6, 99);
  for (int i = 0; i < 200; ++i) EXPECT_LT(src.next(), 64u);
}

TEST(Mt19937Source, SeededReproducibility) {
  Mt19937Source a(16, 5);
  Mt19937Source b(16, 5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

// --- factory ------------------------------------------------------------------

TEST(Factory, CreatesEveryKind) {
  for (RngKind kind :
       {RngKind::kLfsr, RngKind::kVanDerCorput, RngKind::kHalton,
        RngKind::kSobol, RngKind::kCounter, RngKind::kMt19937}) {
    RngSpec spec;
    spec.kind = kind;
    spec.width = 8;
    auto src = make_rng(spec);
    ASSERT_NE(src, nullptr) << to_string(kind);
    EXPECT_EQ(src->width(), 8u);
    EXPECT_LT(src->next(), 256u);
    EXPECT_FALSE(src->name().empty());
  }
}

TEST(Factory, KindNames) {
  EXPECT_EQ(to_string(RngKind::kLfsr), "LFSR");
  EXPECT_EQ(to_string(RngKind::kVanDerCorput), "VDC");
  EXPECT_EQ(to_string(RngKind::kHalton), "Halton");
  EXPECT_EQ(to_string(RngKind::kSobol), "Sobol");
}

TEST(RandomSourceInterface, NextUnitInUnitInterval) {
  Lfsr lfsr(8, 1);
  for (int i = 0; i < 100; ++i) {
    const double u = lfsr.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- fill() == next() equivalence -------------------------------------------

// Every source's block fill() must be sequence-identical to one next() per
// draw, including across fill boundaries that fall at odd offsets (the
// kernel layer issues fills in arbitrary block sizes).
void ExpectFillMatchesNext(const RandomSource& proto, std::size_t total) {
  const auto a = proto.clone();  // fill path
  const auto b = proto.clone();  // serial reference
  std::vector<std::uint32_t> got(total);
  static constexpr std::size_t kSplits[] = {1, 7, 63, 64, 65, 1000, 4096};
  std::size_t done = 0;
  std::size_t s = 0;
  while (done < total) {
    const std::size_t n = std::min(kSplits[s % std::size(kSplits)],
                                   total - done);
    a->fill(got.data() + done, n);
    done += n;
    ++s;
  }
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(got[i], b->next()) << proto.name() << " diverges at draw " << i;
  }
}

TEST(FillEquivalence, AllSourcesMatchSerialNext) {
  ExpectFillMatchesNext(Lfsr(11, 5), 9000);
  ExpectFillMatchesNext(Lfsr(8, 3, 3), 2000);  // rotated output taps
  // The graph operating point: more than one period, so fills cross the
  // wrap of the width's orbit table at odd offsets.
  ExpectFillMatchesNext(Lfsr(12, 0x5A5), 9000);
  ExpectFillMatchesNext(Lfsr(16, 0xACE1, 3), 70000);
  ExpectFillMatchesNext(CounterSource(9, 17), 3000);
  ExpectFillMatchesNext(Mt19937Source(16, 42), 3000);
  ExpectFillMatchesNext(VanDerCorput(10), 3000);
  ExpectFillMatchesNext(Halton(10, 3), 3000);
  ExpectFillMatchesNext(Sobol(12, 2), 3000);
}

TEST(FillEquivalence, LfsrConcurrentFirstUseMatchesSerialNext) {
  // Registers of one width race to build its orbit table and the shared
  // byte table for one bound (width 14 and bound 37 are used by no earlier
  // test in this binary); each must still draw its own serial sequence.
  constexpr unsigned kWidth = 14;
  constexpr std::uint32_t kBound = 37;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kDraws = 20000;
  std::vector<std::vector<std::uint8_t>> got(kThreads,
                                             std::vector<std::uint8_t>(kDraws));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      Lfsr lfsr(kWidth, static_cast<std::uint32_t>(977 * t + 1), 5);
      lfsr.fill_indices(got[t].data(), kDraws, kBound);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    Lfsr serial(kWidth, static_cast<std::uint32_t>(977 * t + 1), 5);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(got[t][i], serial.next() % kBound)
          << "thread " << t << " draw " << i;
    }
  }
}

TEST(FillEquivalence, LfsrFillMatchesNextAtEveryWidth) {
  // Widths up to 16 copy windows of the shared orbit table (past one full
  // period here, so every width crosses its wrap); wider registers step.
  for (unsigned width = 3; width <= 32; ++width) {
    const std::size_t total =
        width <= 16 ? (std::size_t{1} << width) + 100 : 5000;
    for (const unsigned rotation : {0u, width / 3}) {
      ExpectFillMatchesNext(Lfsr(width, 0xACE1, rotation), total);
    }
  }
}

TEST(FillEquivalence, FillResumesMidSequence) {
  // Interleave next() draws with fills: the fill must pick up wherever the
  // serial state is, not assume block-aligned consumption.
  Sobol a(12, 3);
  Sobol b(12, 3);
  std::vector<std::uint32_t> got(100);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(a.next(), b.next());
    a.fill(got.data(), got.size());
    for (std::uint32_t v : got) EXPECT_EQ(v, b.next());
  }
}

// --- RandomSource word API ---------------------------------------------------

// Reference model for the packed word APIs, built from the serial next()
// sequence of a clone.
std::vector<std::uint64_t> PackCompareRef(RandomSource& src, std::size_t nbits,
                                          std::uint64_t level) {
  std::vector<std::uint64_t> words((nbits + 63) / 64, 0);
  for (std::size_t i = 0; i < nbits; ++i) {
    if (src.next() < level) words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return words;
}

class WordApi : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::unique_ptr<RandomSource> make() const {
    const std::string kind = GetParam();
    if (kind == "lfsr") return std::make_unique<Lfsr>(11, 5);
    if (kind == "lfsr-rot") return std::make_unique<Lfsr>(8, 3, 3);
    if (kind == "lfsr12") return std::make_unique<Lfsr>(12, 0x5A5);
    // Rotation 3 is the decorrelator's second buffer at the graph width.
    if (kind == "lfsr16-rot") return std::make_unique<Lfsr>(16, 0xACE1, 3);
    if (kind == "counter") return std::make_unique<CounterSource>(9, 100);
    if (kind == "mt") return std::make_unique<Mt19937Source>(16, 7);
    if (kind == "vdc") return std::make_unique<VanDerCorput>(10);
    if (kind == "halton") return std::make_unique<Halton>(10, 3);
    return std::make_unique<Sobol>(12, 2);
  }
};

TEST_P(WordApi, FillCompareMatchesSerialAcrossOddSplits) {
  const auto src = make();
  const auto ref = src->clone();
  const std::uint64_t level = src->range() / 3;
  // The total exceeds a 16-bit LFSR period (65535), so the odd-offset
  // splits cross the wrap of every LFSR source's orbit table.
  static constexpr std::size_t kSplits[] = {1, 63, 65, 4096, 7000, 60001};
  std::size_t total = 0;
  for (const std::size_t n : kSplits) total += n;
  std::vector<std::uint64_t> got((total + 63) / 64, 0);
  std::size_t done = 0;
  for (const std::size_t n : kSplits) {
    // Word-aligned starts, as the kernel layer guarantees.
    std::vector<std::uint64_t> piece((n + 63) / 64, 0);
    src->fill_compare(piece.data(), n, level);
    for (std::size_t i = 0; i < n; ++i) {
      if ((piece[i / 64] >> (i % 64)) & 1u) {
        got[(done + i) / 64] |= std::uint64_t{1} << ((done + i) % 64);
      }
    }
    done += n;
  }
  EXPECT_EQ(got, PackCompareRef(*ref, total, level));
}

TEST_P(WordApi, FillCompareFullScaleLevelIsAllOnesAndAdvances) {
  const auto src = make();
  const auto ref = src->clone();
  std::vector<std::uint64_t> words(3, 0);
  src->fill_compare(words.data(), 130, src->range());
  EXPECT_EQ(words[0], ~std::uint64_t{0});
  EXPECT_EQ(words[1], ~std::uint64_t{0});
  EXPECT_EQ(words[2], std::uint64_t{3});
  // The sequence must still advance by 130 draws.
  for (int i = 0; i < 130; ++i) ref->next();
  EXPECT_EQ(src->next(), ref->next());
}

TEST_P(WordApi, FillIndicesMatchesSerialModulo) {
  const auto src = make();
  const auto ref = src->clone();
  // Bound 9 is a depth-8 shuffle buffer's address range; the five draws
  // together run past a 16-bit period.
  static constexpr std::uint32_t kBounds[] = {1, 2, 9, 17, 255};
  for (const std::uint32_t bound : kBounds) {
    std::vector<std::uint8_t> got(14001);
    src->fill_indices(got.data(), got.size(), bound);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>(ref->next() % bound))
          << "bound=" << bound << " i=" << i;
    }
  }
}

TEST_P(WordApi, FillCompareTraceMatchesSerialSignedCompare) {
  const auto src = make();
  const auto ref = src->clone();
  const std::size_t n = 70001;
  std::vector<std::uint16_t> thresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    thresh[i] = static_cast<std::uint16_t>((i * 37) % 300);
  }
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  src->fill_compare_trace(words.data(), thresh.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool expect =
        static_cast<std::int32_t>(ref->next()) < static_cast<std::int32_t>(thresh[i]);
    ASSERT_EQ((words[i / 64] >> (i % 64)) & 1u, expect ? 1u : 0u) << "i=" << i;
  }
}

TEST_P(WordApi, WordCallsInterleaveWithSerialDraws) {
  // Mixing next() between word calls must keep the shared sequence position
  // (an LFSR's orbit window starts wherever next() left the register).
  const auto src = make();
  const auto ref = src->clone();
  const std::uint64_t level = src->range() / 2;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(src->next(), ref->next());
    std::vector<std::uint64_t> words(20, 0);
    src->fill_compare(words.data(), 1237, level);
    EXPECT_EQ(words, PackCompareRef(*ref, 1237, level));
    std::vector<std::uint8_t> idx(301);
    src->fill_indices(idx.data(), idx.size(), 13);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      ASSERT_EQ(idx[i], static_cast<std::uint8_t>(ref->next() % 13));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSources, WordApi,
                         ::testing::Values("lfsr", "lfsr-rot", "lfsr12",
                                           "lfsr16-rot", "counter", "mt",
                                           "vdc", "halton", "sobol"));

TEST(WordApi, LfsrClonePreservesPosition) {
  // Drive the LFSR past its period through the word API, then clone it
  // mid-sequence: the copy must continue the identical sequence.
  Lfsr lfsr(8, 5);
  std::vector<std::uint64_t> words(20, 0);
  lfsr.fill_compare(words.data(), 1200, 100);
  const auto copy = lfsr.clone();
  std::vector<std::uint64_t> a(4, 0);
  std::vector<std::uint64_t> b(4, 0);
  lfsr.fill_compare(a.data(), 250, 100);
  copy->fill_compare(b.data(), 250, 100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(lfsr.next(), copy->next());
}

TEST(WordApi, LfsrResetRestartsWordSequence) {
  Lfsr lfsr(9, 7);
  std::vector<std::uint64_t> first(10, 0);
  lfsr.fill_compare(first.data(), 640, 200);
  lfsr.reset();
  std::vector<std::uint64_t> again(10, 0);
  lfsr.fill_compare(again.data(), 640, 200);
  EXPECT_EQ(again, first);
}

}  // namespace
}  // namespace sc::rng
