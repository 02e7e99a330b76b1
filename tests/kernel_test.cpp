/// Differential tests for the circuits' word paths (the process()
/// overrides in src/core/, driven through kernel::apply, a single-stream
/// helper and the chunked engine): every override must be bit-identical
/// to the bit-serial step() loop it replaces — across configurations,
/// seeds, stream lengths that are not multiples of 8 (or 64), chunk
/// boundaries, runs that mix step() and process() on one circuit, and
/// bit-serial continuation afterwards.  The RNG-coupled circuits' draw
/// counts also pin which side of its cap each configuration runs on, so
/// an override that quietly falls back to step() fails.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/pair_transform.hpp"
#include "core/shuffle_buffer.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "engine/chunked_stream.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "kernel/apply.hpp"
#include "rng/lfsr.hpp"
#include "rng/mt_source.hpp"

namespace sc::kernel {
namespace {

/// Lengths chosen to hit every remainder path: empty, sub-nibble,
/// sub-byte, word-aligned, word+1, and multi-word with odd tails.
const std::size_t kLengths[] = {0, 1, 3, 7, 8, 31, 63, 64, 65,
                                100, 257, 1000, 4097};

Bitstream random_stream(std::mt19937& gen, std::size_t n, double p) {
  std::bernoulli_distribution bit(p);
  Bitstream out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (bit(gen)) out.set(i, true);
  }
  return out;
}

/// Single-stream counterpart of kernel::apply: begin_stream, then the
/// virtual process() call, so the circuit runs its word path.
Bitstream apply_word_path(core::StreamTransform& transform,
                          const Bitstream& x) {
  Bitstream out = x;
  transform.begin_stream(x.size());
  transform.process(out.word_data(), x.size());
  return out;
}

/// Applies two identically configured transforms — one through core::apply
/// (bit-serial reference), one through kernel::apply (the word path) — and
/// requires bit-identical outputs, matching residual state, and matching
/// bit-serial continuation after the run (which proves the word path
/// leaves the circuit's state exact, including RNG sequence positions).
void expect_equivalent(core::PairTransform& serial, core::PairTransform& fast,
                       const Bitstream& x, const Bitstream& y) {
  const sc::StreamPair ref = core::apply(serial, x, y);
  const sc::StreamPair got = kernel::apply(fast, x, y);
  ASSERT_EQ(ref.x, got.x);
  ASSERT_EQ(ref.y, got.y);
  EXPECT_EQ(serial.saved_ones(), fast.saved_ones());
  for (int i = 0; i < 64; ++i) {
    const bool a = (i % 5) < 2;
    const bool b = (i % 3) == 0;
    const core::BitPair ps = serial.step(a, b);
    const core::BitPair pf = fast.step(a, b);
    ASSERT_EQ(ps.x, pf.x) << "continuation cycle " << i;
    ASSERT_EQ(ps.y, pf.y) << "continuation cycle " << i;
  }
}

// --- synchronizer ----------------------------------------------------------

TEST(WordPath, OversizedDepthsStepInsteadOfWrapping) {
  // State counts are computed in 64 bits: depths whose count wraps a
  // 32-bit integer must step every cycle, not walk an undersized table.
  std::mt19937 gen(99);
  const Bitstream x = random_stream(gen, 300, 0.6);
  const Bitstream y = random_stream(gen, 300, 0.4);
  {
    core::Synchronizer serial({0x80000000u, false, 0});
    core::Synchronizer fast({0x80000000u, false, 0});
    expect_equivalent(serial, fast, x, y);
  }
  for (const unsigned depth : {65535u, 92683u}) {
    core::Desynchronizer serial({depth, false, true});
    core::Desynchronizer fast({depth, false, true});
    expect_equivalent(serial, fast, x, y);
  }
}

TEST(KernelApply, MismatchedSizesThrow) {
  // Both whole-stream helpers check in every build mode: under NDEBUG an
  // assert-only guard would read past the shorter stream.
  core::Synchronizer sync({1, false, 0});
  EXPECT_THROW(kernel::apply(sync, Bitstream(1024), Bitstream(64)),
               std::invalid_argument);
  EXPECT_THROW(core::apply(sync, Bitstream(4096), Bitstream(64)),
               std::invalid_argument);
  EXPECT_THROW(core::apply(sync, Bitstream(64), Bitstream(4096)),
               std::invalid_argument);
  Bitstream a(128);
  Bitstream b(64);
  ChunkedPairApplier applier(sync);
  applier.begin(128);
  EXPECT_THROW(applier.advance(a, b), std::invalid_argument);
}

TEST(SynchronizerKernel, MatchesBitSerial) {
  std::mt19937 gen(101);
  for (const unsigned depth : {1u, 2u, 3u, 8u}) {
    for (const bool flush : {false, true}) {
      for (const int credit : {0, 1, -2}) {
        for (const std::size_t n : kLengths) {
          core::Synchronizer serial({depth, flush, credit});
          core::Synchronizer fast({depth, flush, credit});
          const Bitstream x = random_stream(gen, n, 0.6);
          const Bitstream y = random_stream(gen, n, 0.4);
          expect_equivalent(serial, fast, x, y);
        }
      }
    }
  }
}

// --- desynchronizer --------------------------------------------------------

TEST(DesynchronizerKernel, MatchesBitSerial) {
  std::mt19937 gen(202);
  for (const unsigned depth : {1u, 2u, 5u}) {
    for (const bool flush : {false, true}) {
      for (const bool prefer_x : {true, false}) {
        for (const std::size_t n : kLengths) {
          core::Desynchronizer serial({depth, flush, prefer_x});
          core::Desynchronizer fast({depth, flush, prefer_x});
          const Bitstream x = random_stream(gen, n, 0.7);
          const Bitstream y = random_stream(gen, n, 0.7);
          expect_equivalent(serial, fast, x, y);
        }
      }
    }
  }
}

// --- decorrelator ----------------------------------------------------------

core::Decorrelator decorrelator_fixture(std::size_t depth,
                                        std::uint32_t seed) {
  return core::Decorrelator(
      depth, std::make_unique<rng::Lfsr>(10, seed),
      std::make_unique<rng::Lfsr>(10, seed + 17, /*rotation=*/3));
}

TEST(DecorrelatorKernel, MatchesBitSerial) {
  std::mt19937 gen(303);
  // 63 is the SIMD tiers' deepest slot-class shuffle; 64 runs the shim's
  // scalar loop at every tier.
  for (const std::size_t depth : {1u, 4u, 8u, 12u, 16u, 33u, 63u, 64u}) {
    for (const std::size_t n : kLengths) {
      core::Decorrelator serial = decorrelator_fixture(depth, 0xBEE);
      core::Decorrelator fast = decorrelator_fixture(depth, 0xBEE);
      const Bitstream x = random_stream(gen, n, 0.5);
      const Bitstream y = random_stream(gen, n, 0.3);
      expect_equivalent(serial, fast, x, y);
    }
  }
}

// --- TFM pair --------------------------------------------------------------

TEST(TfmKernel, MatchesBitSerial) {
  std::mt19937 gen(404);
  const core::TrackingForecastMemory::Config configs[] = {
      {8, 3, 0.5}, {8, 1, 0.25}, {6, 2, 0.75}};
  for (const auto& config : configs) {
    for (const std::size_t n : kLengths) {
      core::TfmPair serial(config,
                           std::make_unique<rng::Lfsr>(config.precision, 5),
                           std::make_unique<rng::Lfsr>(config.precision, 9));
      core::TfmPair fast(config,
                         std::make_unique<rng::Lfsr>(config.precision, 5),
                         std::make_unique<rng::Lfsr>(config.precision, 9));
      const Bitstream x = random_stream(gen, n, 0.6);
      const Bitstream y = random_stream(gen, n, 0.2);
      expect_equivalent(serial, fast, x, y);
    }
  }
}

// --- word-datapath boundaries ----------------------------------------------

/// Lengths that straddle the word kernels' internal RNG block (4096 bits)
/// and the 64-bit word grain: every partial-final-word and block-boundary
/// remainder path in the word-parallel implementations.
const std::size_t kWordBoundaryLengths[] = {4095, 4096, 4097, 8191, 8192,
                                            8193, 12289};

TEST(WordKernels, DecorrelatorBitIdenticalAcrossWordAndBlockBoundaries) {
  std::mt19937 gen(707);
  for (const std::size_t depth : {1u, 8u, 16u, 63u, 64u}) {
    for (const std::size_t n : kWordBoundaryLengths) {
      core::Decorrelator serial = decorrelator_fixture(depth, 0xACE);
      core::Decorrelator fast = decorrelator_fixture(depth, 0xACE);
      const Bitstream x = random_stream(gen, n, 0.5);
      const Bitstream y = random_stream(gen, n, 0.35);
      expect_equivalent(serial, fast, x, y);
    }
  }
}

TEST(WordKernels, ChainLinkBitIdenticalAcrossWordAndBlockBoundaries) {
  std::mt19937 gen(808);
  for (const std::size_t depth : {1u, 8u, 63u, 64u}) {  // 64 -> scalar path
    for (const std::size_t n : kWordBoundaryLengths) {
      core::DecorrelatorChainLink serial(depth,
                                         std::make_unique<rng::Lfsr>(10, 21));
      core::DecorrelatorChainLink fast(depth,
                                       std::make_unique<rng::Lfsr>(10, 21));
      const Bitstream x = random_stream(gen, n, 0.55);
      const Bitstream y = random_stream(gen, n, 0.55);
      expect_equivalent(serial, fast, x, y);
    }
  }
}

TEST(WordKernels, TfmPairBitIdenticalAcrossWordAndBlockBoundaries) {
  std::mt19937 gen(909);
  // Precision 8 is the word path's cap; 9 and 10 step every cycle.
  for (const unsigned precision : {8u, 9u, 10u}) {
    const core::TrackingForecastMemory::Config config{precision, 3, 0.5};
    for (const std::size_t n : kWordBoundaryLengths) {
      core::TfmPair serial(config, std::make_unique<rng::Lfsr>(precision, 5),
                           std::make_unique<rng::Lfsr>(precision, 9));
      core::TfmPair fast(config, std::make_unique<rng::Lfsr>(precision, 5),
                         std::make_unique<rng::Lfsr>(precision, 9));
      const Bitstream x = random_stream(gen, n, 0.6);
      const Bitstream y = random_stream(gen, n, 0.25);
      expect_equivalent(serial, fast, x, y);
    }
  }
}

TEST(WordKernels, FaultsPinnedAtWordBoundariesDoNotShift) {
  // Mirrors the chunk-boundary fault suite at the kernel grain: corrupt the
  // inputs exactly at 64-bit word seams and RNG-block seams, then require
  // the word kernels to track the bit-serial reference through the
  // disturbance (a word-offset bug would shift the corruption's echo).
  std::mt19937 gen(1010);
  const std::size_t n = 8193;
  const std::size_t kFaultBits[] = {0, 63, 64, 65, 4095, 4096, 4097, 8192};
  Bitstream x = random_stream(gen, n, 0.5);
  Bitstream y = random_stream(gen, n, 0.5);
  for (const std::size_t i : kFaultBits) {
    x.set(i, !x.get(i));  // bit-flip fault at the seam
    y.set(i, true);       // stuck-at-1 fault at the seam
  }
  {
    core::Decorrelator serial = decorrelator_fixture(8, 0xFA1);
    core::Decorrelator fast = decorrelator_fixture(8, 0xFA1);
    expect_equivalent(serial, fast, x, y);
  }
  {
    const core::TrackingForecastMemory::Config config{8, 3, 0.5};
    core::TfmPair serial(config, std::make_unique<rng::Lfsr>(8, 5),
                         std::make_unique<rng::Lfsr>(8, 9));
    core::TfmPair fast(config, std::make_unique<rng::Lfsr>(8, 5),
                       std::make_unique<rng::Lfsr>(8, 9));
    expect_equivalent(serial, fast, x, y);
  }
  {
    core::DecorrelatorChainLink serial(16, std::make_unique<rng::Lfsr>(10, 3));
    core::DecorrelatorChainLink fast(16, std::make_unique<rng::Lfsr>(10, 3));
    expect_equivalent(serial, fast, x, y);
  }
}

TEST(WordKernels, ShuffleBufferBitIdenticalAcrossWordAndBlockBoundaries) {
  std::mt19937 gen(1111);
  for (const std::size_t depth : {1u, 8u, 63u, 64u}) {
    for (const std::size_t n : kWordBoundaryLengths) {
      core::ShuffleBuffer serial(depth, std::make_unique<rng::Lfsr>(9, 33));
      core::ShuffleBuffer fast(depth, std::make_unique<rng::Lfsr>(9, 33));
      const Bitstream in = random_stream(gen, n, 0.5);
      ASSERT_EQ(core::apply(serial, in), apply_word_path(fast, in))
          << "depth=" << depth << " n=" << n;
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(serial.step(i % 3 == 0), fast.step(i % 3 == 0));
      }
    }
  }
}

TEST(WordKernels, TfmStreamBitIdenticalAcrossWordAndBlockBoundaries) {
  std::mt19937 gen(1212);
  for (const unsigned precision : {8u, 9u, 10u}) {
    for (const std::size_t n : kWordBoundaryLengths) {
      core::TrackingForecastMemory serial(
          {precision, 3, 0.5}, std::make_unique<rng::Lfsr>(precision, 77));
      core::TrackingForecastMemory fast(
          {precision, 3, 0.5}, std::make_unique<rng::Lfsr>(precision, 77));
      const Bitstream in = random_stream(gen, n, 0.4);
      ASSERT_EQ(core::apply(serial, in), apply_word_path(fast, in))
          << "precision=" << precision << " n=" << n;
      EXPECT_EQ(serial.estimate(), fast.estimate());
    }
  }
}

// --- single-stream kernels -------------------------------------------------

TEST(StreamKernel, ShuffleBufferMatchesBitSerial) {
  std::mt19937 gen(505);
  for (const std::size_t depth : {1u, 8u, 12u, 20u}) {
    for (const std::size_t n : kLengths) {
      core::ShuffleBuffer serial(depth, std::make_unique<rng::Lfsr>(9, 33));
      core::ShuffleBuffer fast(depth, std::make_unique<rng::Lfsr>(9, 33));
      const Bitstream x = random_stream(gen, n, 0.5);
      const Bitstream ref = core::apply(serial, x);
      const Bitstream got = apply_word_path(fast, x);
      ASSERT_EQ(ref, got) << "depth=" << depth << " n=" << n;
      EXPECT_EQ(serial.saved_ones(), fast.saved_ones());
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(serial.step(i % 3 == 0), fast.step(i % 3 == 0));
      }
    }
  }
}

TEST(StreamKernel, TfmMatchesBitSerial) {
  std::mt19937 gen(606);
  for (const std::size_t n : kLengths) {
    core::TrackingForecastMemory serial({8, 3, 0.5},
                                        std::make_unique<rng::Lfsr>(8, 77));
    core::TrackingForecastMemory fast({8, 3, 0.5},
                                      std::make_unique<rng::Lfsr>(8, 77));
    const Bitstream x = random_stream(gen, n, 0.4);
    ASSERT_EQ(core::apply(serial, x), apply_word_path(fast, x)) << "n=" << n;
    EXPECT_EQ(serial.estimate(), fast.estimate());
  }
}

TEST(StreamKernel, TransformWithoutWordPathSteps) {
  // A transform that does not override process() must still work through
  // the virtual call (the base step() loop), not crash or change results.
  class Inverter final : public core::StreamTransform {
   public:
    bool step(bool in) override { return !in; }
    void reset() override {}
  };
  Inverter serial;
  Inverter fast;
  const Bitstream x = Bitstream::from_string("1011001110001");
  EXPECT_EQ(core::apply(serial, x), apply_word_path(fast, x));
}

// --- mixed step() / process() runs -------------------------------------------

using Word = Bitstream::Word;
using Words = std::vector<Word>;

/// One stretch of a mixed run: `length` cycles through process() (the
/// word path) or through step().
struct Run {
  std::size_t length;
  bool word_path;
};

/// process() runs of every fixed length plus random ones, each followed
/// by a short step() run, so every word-path entry sees state a step()
/// run left behind and vice versa.  A final process() run puts the flush
/// window of a flushing circuit on the word path.
std::vector<Run> mixed_runs(std::mt19937& gen) {
  std::uniform_int_distribution<std::size_t> step_length(0, 130);
  std::uniform_int_distribution<std::size_t> word_length(0, 9000);
  std::vector<Run> runs;
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 4095u, 4097u}) {
    runs.push_back({n, true});
    runs.push_back({step_length(gen), false});
  }
  for (int k = 0; k < 4; ++k) {
    runs.push_back({word_length(gen), true});
    runs.push_back({step_length(gen), false});
  }
  runs.push_back({word_length(gen), true});
  return runs;
}

std::size_t total_length(const std::vector<Run>& runs) {
  std::size_t total = 0;
  for (const Run& run : runs) total += run.length;
  return total;
}

/// Padding patterns for the bits past a run: distinct per stream, so a
/// word path that copies one stream's tail into the other shows.
constexpr Word kPadX = ~Word{0};
constexpr Word kPadY = 0x5A5A5A5A5A5A5A5AULL;

/// Bits [pos, pos + n) of `s` packed from bit 0, with the bits past n in
/// the last word taken from `pad`: process() must leave those alone.
Words run_words(const Bitstream& s, std::size_t pos, std::size_t n,
                Word pad) {
  Words w(n / 64 + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (s.get(pos + i)) w[i / 64] |= Word{1} << (i % 64);
  }
  w.back() |= pad & (~Word{0} << (n % 64));
  return w;
}

bool bit(const Words& w, std::size_t i) {
  return ((w[i / 64] >> (i % 64)) & 1u) != 0;
}

void set_bit(Words& w, std::size_t i, bool value) {
  const Word m = Word{1} << (i % 64);
  w[i / 64] = value ? w[i / 64] | m : w[i / 64] & ~m;
}

/// Checks the padding past the run survived, then copies the run's bits
/// into `out` at `pos`.
void store_run(const Words& w, std::size_t n, Word pad, Bitstream& out,
               std::size_t pos) {
  ASSERT_EQ(w.back() >> (n % 64), pad >> (n % 64))
      << "bits past the run changed (n=" << n << ")";
  for (std::size_t i = 0; i < n; ++i) out.set(pos + i, bit(w, i));
}

using PairFactory = std::function<std::unique_ptr<core::PairTransform>()>;
using StreamFactory = std::function<std::unique_ptr<core::StreamTransform>()>;

/// A mixed run over two fresh circuits from `make` must equal a pure
/// step() run (core::apply), leave the same saved bits, and continue
/// identically bit-serially.
void expect_mixed_runs_match_step(const PairFactory& make, std::mt19937& gen) {
  const std::vector<Run> runs = mixed_runs(gen);
  const std::size_t total = total_length(runs);
  const Bitstream x = random_stream(gen, total, 0.55);
  const Bitstream y = random_stream(gen, total, 0.45);
  const std::unique_ptr<core::PairTransform> serial = make();
  const std::unique_ptr<core::PairTransform> mixed = make();
  const sc::StreamPair want = core::apply(*serial, x, y);

  Bitstream got_x(total);
  Bitstream got_y(total);
  mixed->begin_stream(total);
  std::size_t pos = 0;
  for (const Run& run : runs) {
    Words xw = run_words(x, pos, run.length, kPadX);
    Words yw = run_words(y, pos, run.length, kPadY);
    if (run.word_path) {
      mixed->process(xw.data(), yw.data(), run.length);
    } else {
      for (std::size_t i = 0; i < run.length; ++i) {
        const core::BitPair out = mixed->step(bit(xw, i), bit(yw, i));
        set_bit(xw, i, out.x);
        set_bit(yw, i, out.y);
      }
    }
    store_run(xw, run.length, kPadX, got_x, pos);
    store_run(yw, run.length, kPadY, got_y, pos);
    pos += run.length;
  }
  ASSERT_EQ(want.x, got_x);
  ASSERT_EQ(want.y, got_y);
  EXPECT_EQ(serial->saved_ones(), mixed->saved_ones());
  for (int i = 0; i < 64; ++i) {
    const core::BitPair ps = serial->step(i % 3 == 0, i % 5 < 2);
    const core::BitPair pm = mixed->step(i % 3 == 0, i % 5 < 2);
    ASSERT_EQ(ps.x, pm.x) << "continuation cycle " << i;
    ASSERT_EQ(ps.y, pm.y) << "continuation cycle " << i;
  }
}

/// Single-stream version of expect_mixed_runs_match_step.
void expect_mixed_runs_match_step(const StreamFactory& make,
                                  std::mt19937& gen) {
  const std::vector<Run> runs = mixed_runs(gen);
  const std::size_t total = total_length(runs);
  const Bitstream x = random_stream(gen, total, 0.55);
  const std::unique_ptr<core::StreamTransform> serial = make();
  const std::unique_ptr<core::StreamTransform> mixed = make();
  const Bitstream want = core::apply(*serial, x);

  Bitstream got(total);
  mixed->begin_stream(total);
  std::size_t pos = 0;
  for (const Run& run : runs) {
    Words xw = run_words(x, pos, run.length, kPadY);
    if (run.word_path) {
      mixed->process(xw.data(), run.length);
    } else {
      for (std::size_t i = 0; i < run.length; ++i) {
        set_bit(xw, i, mixed->step(bit(xw, i)));
      }
    }
    store_run(xw, run.length, kPadY, got, pos);
    pos += run.length;
  }
  ASSERT_EQ(want, got);
  EXPECT_EQ(serial->saved_ones(), mixed->saved_ones());
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(serial->step(i % 3 == 0), mixed->step(i % 3 == 0))
        << "continuation cycle " << i;
  }
}

// Every overriding circuit on both sides of its word-path cap: the
// synchronizer's and desynchronizer's table state counts (depths 2047 /
// 44 are the last under kernel::kMaxTableStates), the shuffle word
// path's one-word slots (depth 64; 63 is the SIMD tiers' deepest
// slot-class shuffle) and the TFM jump table's precision 8.

TEST(MixedRuns, SynchronizerMatchesStep) {
  std::mt19937 gen(1313);
  for (const unsigned depth : {2047u, 2048u}) {
    for (const bool flush : {false, true}) {
      SCOPED_TRACE(testing::Message() << "depth=" << depth
                                      << " flush=" << flush);
      expect_mixed_runs_match_step(
          [&] {
            return std::make_unique<core::Synchronizer>(
                core::Synchronizer::Config{depth, flush, 0});
          },
          gen);
    }
  }
  // A shallow flushing synchronizer reaches its flush window inside the
  // mixed run's final stretches.
  expect_mixed_runs_match_step(
      [] {
        return std::make_unique<core::Synchronizer>(
            core::Synchronizer::Config{3, true, 1});
      },
      gen);
}

TEST(MixedRuns, DesynchronizerMatchesStep) {
  std::mt19937 gen(1414);
  for (const unsigned depth : {2u, 44u, 45u}) {
    for (const bool flush : {false, true}) {
      SCOPED_TRACE(testing::Message() << "depth=" << depth
                                      << " flush=" << flush);
      expect_mixed_runs_match_step(
          [&] {
            return std::make_unique<core::Desynchronizer>(
                core::Desynchronizer::Config{depth, flush, false});
          },
          gen);
    }
  }
}

TEST(MixedRuns, ShuffleCircuitsMatchStep) {
  std::mt19937 gen(1515);
  for (const std::size_t depth : {63u, 64u, 65u}) {
    SCOPED_TRACE(testing::Message() << "depth=" << depth);
    expect_mixed_runs_match_step(
        StreamFactory([&] {
          return std::make_unique<core::ShuffleBuffer>(
              depth, std::make_unique<rng::Lfsr>(10, 41));
        }),
        gen);
    expect_mixed_runs_match_step(
        PairFactory([&] {
          return std::make_unique<core::Decorrelator>(
              depth, std::make_unique<rng::Lfsr>(10, 43),
              std::make_unique<rng::Lfsr>(10, 47, /*rotation=*/3));
        }),
        gen);
    expect_mixed_runs_match_step(
        PairFactory([&] {
          return std::make_unique<core::DecorrelatorChainLink>(
              depth, std::make_unique<rng::Lfsr>(10, 53));
        }),
        gen);
  }
}

TEST(MixedRuns, TfmCircuitsMatchStep) {
  std::mt19937 gen(1616);
  for (const unsigned precision : {8u, 9u}) {
    SCOPED_TRACE(testing::Message() << "precision=" << precision);
    const core::TrackingForecastMemory::Config config{precision, 3, 0.5};
    expect_mixed_runs_match_step(
        StreamFactory([&] {
          return std::make_unique<core::TrackingForecastMemory>(
              config, std::make_unique<rng::Lfsr>(precision, 61));
        }),
        gen);
    expect_mixed_runs_match_step(
        PairFactory([&] {
          return std::make_unique<core::TfmPair>(
              config, std::make_unique<rng::Lfsr>(precision, 67),
              std::make_unique<rng::Lfsr>(precision, 71));
        }),
        gen);
  }
}

// --- word-path selection ----------------------------------------------------

/// How a circuit drew from its sources: per-cycle next() calls (step())
/// apart from the block calls the word paths make.
struct DrawCounts {
  std::size_t next = 0;
  std::size_t block = 0;
};

/// An rng::Lfsr that counts its draws into a DrawCounts the test keeps.
class CountingSource final : public rng::RandomSource {
 public:
  CountingSource(unsigned width, std::uint32_t seed, DrawCounts& counts)
      : lfsr_(width, seed), counts_(&counts) {}

  std::uint32_t next() override {
    ++counts_->next;
    return lfsr_.next();
  }
  void fill(std::uint32_t* out, std::size_t n) override {
    ++counts_->block;
    lfsr_.fill(out, n);
  }
  void fill_compare(std::uint64_t* words, std::size_t nbits,
                    std::uint64_t level) override {
    ++counts_->block;
    lfsr_.fill_compare(words, nbits, level);
  }
  void fill_compare_trace(std::uint64_t* words, const std::uint16_t* thresh,
                          std::size_t nbits) override {
    ++counts_->block;
    lfsr_.fill_compare_trace(words, thresh, nbits);
  }
  void fill_indices(std::uint8_t* out, std::size_t n,
                    std::uint32_t bound) override {
    ++counts_->block;
    lfsr_.fill_indices(out, n, bound);
  }
  [[nodiscard]] unsigned width() const override { return lfsr_.width(); }
  void reset() override { lfsr_.reset(); }
  [[nodiscard]] std::unique_ptr<rng::RandomSource> clone() const override {
    return std::make_unique<CountingSource>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "counting " + lfsr_.name();
  }

 private:
  rng::Lfsr lfsr_;
  DrawCounts* counts_;
};

rng::RandomSourcePtr counting(unsigned width, std::uint32_t seed,
                              DrawCounts& counts) {
  return std::make_unique<CountingSource>(width, seed, counts);
}

/// On its word path a circuit draws only through block calls; past the
/// cap it steps, one next() per cycle and source.
void expect_draws(const DrawCounts& counts, bool word_path,
                  std::size_t step_draws) {
  if (word_path) {
    EXPECT_EQ(counts.next, 0u);
    EXPECT_GT(counts.block, 0u);
  } else {
    EXPECT_EQ(counts.next, step_draws);
    EXPECT_EQ(counts.block, 0u);
  }
}

TEST(WordPath, RngCoupledCircuitsTakeTheirWordPathUpToTheCap) {
  // Every equivalence test above passes just as well when a process()
  // override falls back to step(); the draw counts tell the paths apart.
  // Shuffle depth 64 and TFM precision 8 are the word paths' caps.
  std::mt19937 gen(1717);
  const std::size_t n = 4097;
  const Bitstream x = random_stream(gen, n, 0.5);
  const Bitstream y = random_stream(gen, n, 0.4);
  for (const std::size_t depth : {64u, 65u}) {
    SCOPED_TRACE(testing::Message() << "depth=" << depth);
    const bool word_path = depth <= 64;
    {
      DrawCounts counts;
      core::ShuffleBuffer buffer(depth, counting(10, 41, counts));
      apply_word_path(buffer, x);
      expect_draws(counts, word_path, n);
    }
    {
      DrawCounts counts;
      core::Decorrelator decorrelator(depth, counting(10, 43, counts),
                                      counting(10, 47, counts));
      kernel::apply(decorrelator, x, y);
      expect_draws(counts, word_path, 2 * n);
    }
    {
      DrawCounts counts;
      core::DecorrelatorChainLink link(depth, counting(10, 53, counts));
      kernel::apply(link, x, y);
      expect_draws(counts, word_path, n);
    }
  }
  for (const unsigned precision : {8u, 9u}) {
    SCOPED_TRACE(testing::Message() << "precision=" << precision);
    const bool word_path = precision <= 8;
    const core::TrackingForecastMemory::Config config{precision, 3, 0.5};
    {
      DrawCounts counts;
      core::TrackingForecastMemory tfm(config,
                                       counting(precision, 61, counts));
      apply_word_path(tfm, x);
      expect_draws(counts, word_path, n);
    }
    {
      DrawCounts counts;
      core::TfmPair pair(config, counting(precision, 67, counts),
                         counting(precision, 71, counts));
      kernel::apply(pair, x, y);
      expect_draws(counts, word_path, 2 * n);
    }
  }
}

// --- chunked engine path ---------------------------------------------------

/// kAuto (kernel) and kSerial chunked runs over the same sources must
/// produce identical streams, including flush tails that span chunk
/// boundaries and chunk sizes that are not multiples of 64.
void expect_chunked_equivalent(core::PairTransform& serial_fsm,
                               core::PairTransform& fast_fsm,
                               std::size_t length, std::size_t chunk_bits) {
  using namespace sc::engine;
  SngChunkSource sx_a(std::make_unique<rng::Lfsr>(12, 0xACE), 2000, length);
  SngChunkSource sy_a(std::make_unique<rng::Lfsr>(12, 0xACE, 5), 2000, length);
  CollectPairSink fast_sink;
  run_chunked_pair(sx_a, sy_a, &fast_fsm, fast_sink, chunk_bits,
                   KernelPolicy::kAuto);

  SngChunkSource sx_b(std::make_unique<rng::Lfsr>(12, 0xACE), 2000, length);
  SngChunkSource sy_b(std::make_unique<rng::Lfsr>(12, 0xACE, 5), 2000, length);
  CollectPairSink serial_sink;
  run_chunked_pair(sx_b, sy_b, &serial_fsm, serial_sink, chunk_bits,
                   KernelPolicy::kSerial);

  ASSERT_EQ(serial_sink.stream_x(), fast_sink.stream_x());
  ASSERT_EQ(serial_sink.stream_y(), fast_sink.stream_y());
}

TEST(ChunkedKernel, SynchronizerFlushAcrossChunkBoundaries) {
  for (const std::size_t chunk_bits : {4u, 100u, 1000u, 65536u}) {
    core::Synchronizer serial({8, true});
    core::Synchronizer fast({8, true});
    expect_chunked_equivalent(serial, fast, 10007, chunk_bits);
  }
}

TEST(ChunkedKernel, DecorrelatorAcrossChunkBoundaries) {
  for (const std::size_t chunk_bits : {100u, 4096u}) {
    core::Decorrelator serial = decorrelator_fixture(8, 0xF00);
    core::Decorrelator fast = decorrelator_fixture(8, 0xF00);
    expect_chunked_equivalent(serial, fast, 100003, chunk_bits);
  }
}

TEST(ChunkedKernel, SingleStreamAuto) {
  using namespace sc::engine;
  const std::size_t length = 10007;
  core::ShuffleBuffer serial(8, std::make_unique<rng::Lfsr>(9, 3));
  core::ShuffleBuffer fast(8, std::make_unique<rng::Lfsr>(9, 3));

  SngChunkSource src_a(std::make_unique<rng::Lfsr>(12, 0xB0B), 1000, length);
  CollectSink fast_sink;
  run_chunked(src_a, &fast, fast_sink, 1000, KernelPolicy::kAuto);

  SngChunkSource src_b(std::make_unique<rng::Lfsr>(12, 0xB0B), 1000, length);
  CollectSink serial_sink;
  run_chunked(src_b, &serial, serial_sink, 1000, KernelPolicy::kSerial);

  ASSERT_EQ(serial_sink.stream(), fast_sink.stream());
}

// --- graph executor --------------------------------------------------------

TEST(ExecutorKernel, KernelBackendIsBitIdenticalToReference) {
  using namespace sc::graph;
  GraphBuilder g;
  const Value a = g.input("a", 0.6, 0);
  const Value b = g.input("b", 0.5, 0);
  const Value c = g.input("c", 0.3, 1);
  const Value d = g.input("d", 0.8, 1);
  const Value ab = g.op("multiply", {a, b});
  const Value cd = g.op("subtract", {c, d});
  g.output(g.op("scaled-add", {ab, cd}));
  const Program program = g.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  ExecConfig config;
  config.stream_length = 4096;

  const ExecutionResult fast =
      make_backend(BackendKind::kKernel)->run(program, plan, config);
  const ExecutionResult ref =
      make_backend(BackendKind::kReference)->run(program, plan, config);
  ASSERT_EQ(fast.streams.size(), ref.streams.size());
  for (std::size_t i = 0; i < fast.streams.size(); ++i) {
    ASSERT_EQ(fast.streams[i], ref.streams[i]) << "node " << i;
  }
  EXPECT_EQ(fast.mean_abs_error, ref.mean_abs_error);
}

// --- RNG fill block --------------------------------------------------------

TEST(RandomSourceFill, LfsrFillMatchesNextExactly) {
  rng::Lfsr a(16, 0xACE1, 5);
  rng::Lfsr b(16, 0xACE1, 5);
  std::vector<std::uint32_t> block(1000);
  a.fill(block.data(), block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block[i], b.next()) << "i=" << i;
  }
  // Interleaving fill and next must continue the same sequence.
  a.fill(block.data(), 7);
  for (std::size_t i = 0; i < 7; ++i) {
    ASSERT_EQ(block[i], b.next());
  }
  ASSERT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace sc::kernel
