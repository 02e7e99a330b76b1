/// Differential tests for the table-driven kernel layer (src/kernel/):
/// every kernel must be bit-identical to the bit-serial FSM it replaces —
/// across configurations, seeds, stream lengths that are not multiples of
/// 8 (or 64), chunk boundaries, and state written back for bit-serial
/// continuation after a kernel run.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
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
#include "kernel/kernels.hpp"
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

/// Applies two identically configured transforms — one through core::apply
/// (bit-serial reference), one through kernel::apply — and requires
/// bit-identical outputs, matching residual state, and matching bit-serial
/// continuation after the run (which proves the state writeback is exact,
/// including RNG sequence positions).
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

TEST(SynchronizerKernel, EligibleConfigsCompile) {
  core::Synchronizer sync({4, true, 1});
  EXPECT_NE(make_pair_kernel(sync), nullptr);
}

TEST(PairKernelFactory, OversizedDepthsFallBackInsteadOfWrapping) {
  // State counts are computed in 64 bits: depths whose count wraps a
  // 32-bit integer must return "no kernel", not an undersized table.
  core::Synchronizer sync({0x80000000u, false, 0});
  EXPECT_EQ(make_pair_kernel(sync), nullptr);
  core::Desynchronizer desync({65535u, false, true});
  EXPECT_EQ(make_pair_kernel(desync), nullptr);
  core::Desynchronizer desync2({92683u, false, true});
  EXPECT_EQ(make_pair_kernel(desync2), nullptr);
}

TEST(KernelApply, MismatchedSizesThrow) {
  core::Synchronizer sync({1, false, 0});
  EXPECT_THROW(kernel::apply(sync, Bitstream(1024), Bitstream(64)),
               std::invalid_argument);
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
  // Precision 8 is the kernel cap; 9 and 10 have no kernel and must fall
  // back to the bit-serial FSM.
  for (const unsigned precision : {8u, 9u, 10u}) {
    const core::TrackingForecastMemory::Config config{precision, 3, 0.5};
    for (const std::size_t n : kWordBoundaryLengths) {
      core::TfmPair serial(config, std::make_unique<rng::Lfsr>(precision, 5),
                           std::make_unique<rng::Lfsr>(precision, 9));
      core::TfmPair fast(config, std::make_unique<rng::Lfsr>(precision, 5),
                         std::make_unique<rng::Lfsr>(precision, 9));
      ASSERT_EQ(make_pair_kernel(fast) != nullptr, precision <= 8);
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
      ASSERT_EQ(core::apply(serial, in), kernel::apply(fast, in))
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
      ASSERT_EQ(make_stream_kernel(fast) != nullptr, precision <= 8);
      const Bitstream in = random_stream(gen, n, 0.4);
      ASSERT_EQ(core::apply(serial, in), kernel::apply(fast, in))
          << "precision=" << precision << " n=" << n;
      EXPECT_EQ(serial.estimate_fixed(), fast.estimate_fixed());
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
      const Bitstream got = kernel::apply(fast, x);
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
    ASSERT_EQ(core::apply(serial, x), kernel::apply(fast, x)) << "n=" << n;
    EXPECT_EQ(serial.estimate_fixed(), fast.estimate_fixed());
  }
}

TEST(StreamKernel, UnsupportedTransformFallsBack) {
  // A transform type without a kernel must still work through
  // kernel::apply (bit-serial fallback), not crash or change results.
  class Inverter final : public core::StreamTransform {
   public:
    bool step(bool in) override { return !in; }
    void reset() override {}
  };
  Inverter serial;
  Inverter fast;
  EXPECT_EQ(make_stream_kernel(fast), nullptr);
  const Bitstream x = Bitstream::from_string("1011001110001");
  EXPECT_EQ(core::apply(serial, x), kernel::apply(fast, x));
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
