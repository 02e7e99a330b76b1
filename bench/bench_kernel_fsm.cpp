/// \file bench_kernel_fsm.cpp
/// Bit-serial vs word-path throughput of the correlation circuits.
///
/// Runs each FSM (synchronizer, desynchronizer, decorrelator, TFM pair)
/// over the same chunked long-stream workload twice — once through the
/// base PairTransform::process called non-virtually (one virtual step()
/// per cycle, the reference path) and once through the circuit's
/// process() override (table-driven or word-parallel) — and reports
/// Mbit/s per circuit, the speedup, and whether the two runs produced
/// identical overlap statistics (they must: the word paths are
/// bit-identical by construction and by test).
///
/// Harness bench (bench_harness.hpp): median-of-reps timing with warmup,
/// sc-bench-v1 JSON.  Cases: kernel_fsm/<circuit>/{serial,kernel}
/// (throughput, Mbit/s) and kernel_fsm/<circuit>/identical (exact — the
/// bit-identity contract the regression gate hard-fails on).
///
/// Usage: bench_kernel_fsm [--json PATH] [--reps N] [--warmup N]
///        [--quick] [--bits LOG2]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "bitstream/correlation.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "engine/chunked_stream.hpp"
#include "rng/lfsr.hpp"

namespace {

/// One chunked run of `make_transform()` over input chunks materialized
/// up front (so the measurement isolates FSM throughput; input generation
/// is identical for both paths and would only compress the ratio):
/// begin_stream(total), then each chunk pair copied into the run's
/// buffers and advanced through the base process() (`serial`) or the
/// circuit's override.  `counts` receives the joint overlap statistics
/// for the identity check between the two paths.
void run_once(const std::function<std::unique_ptr<sc::core::PairTransform>()>&
                  make_transform,
              const std::vector<sc::Bitstream>& chunks_x,
              const std::vector<sc::Bitstream>& chunks_y, std::size_t bits,
              bool serial, sc::OverlapCounts* counts) {
  using namespace sc;
  const std::unique_ptr<core::PairTransform> transform = make_transform();
  transform->begin_stream(bits);
  Bitstream x;
  Bitstream y;
  OverlapCounts total;
  for (std::size_t i = 0; i < chunks_x.size(); ++i) {
    x = chunks_x[i];
    y = chunks_y[i];
    if (serial) {
      transform->core::PairTransform::process(x.word_data(), y.word_data(),
                                              x.size());
    } else {
      transform->process(x.word_data(), y.word_data(), x.size());
    }
    const OverlapCounts piece = overlap(x, y);
    total.a += piece.a;
    total.b += piece.b;
    total.c += piece.c;
    total.d += piece.d;
  }
  *counts = total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sc;

  bench::HarnessOptions options;
  std::vector<std::string> rest;
  if (!bench::parse_harness_options(argc, argv, &options, &rest)) return 2;
  unsigned log2_bits = options.quick ? 20 : 23;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--bits" && i + 1 < rest.size()) {
      log2_bits = static_cast<unsigned>(std::atoi(rest[++i].c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--reps N] [--warmup N] [--quick] "
                   "[--bits LOG2 (6..32)]\n",
                   argv[0]);
      return 2;
    }
  }
  if (log2_bits < 6 || log2_bits > 32) return 2;
  const std::size_t bits = std::size_t{1} << log2_bits;
  const std::string config = "bits=" + std::to_string(log2_bits);

  const std::vector<
      std::pair<std::string,
                std::function<std::unique_ptr<core::PairTransform>()>>>
      circuits = {
          {"synchronizer",
           [] {
             return std::make_unique<core::Synchronizer>(
                 core::Synchronizer::Config{2, true, 0});
           }},
          {"desynchronizer",
           [] {
             return std::make_unique<core::Desynchronizer>(
                 core::Desynchronizer::Config{2, false, true});
           }},
          {"decorrelator",
           [] {
             return std::make_unique<core::Decorrelator>(
                 8, std::make_unique<rng::Lfsr>(16, 0xBEEF),
                 std::make_unique<rng::Lfsr>(16, 0xCAFE, 5));
           }},
          {"tfm",
           [] {
             return std::make_unique<core::TfmPair>(
                 core::TrackingForecastMemory::Config{8, 3, 0.5},
                 std::make_unique<rng::Lfsr>(8, 0x1D),
                 std::make_unique<rng::Lfsr>(8, 0x2E));
           }},
      };

  // Input pair materialized once, in chunks: a correlated comparator-SNG
  // pair, the workload the correlation circuits exist to manipulate.
  std::vector<sc::Bitstream> chunks_x;
  std::vector<sc::Bitstream> chunks_y;
  {
    engine::SngChunkSource sx(std::make_unique<rng::Lfsr>(16, 0xACE1), 24000,
                              bits);
    engine::SngChunkSource sy(std::make_unique<rng::Lfsr>(16, 0xACE1, 5),
                              40000, bits);
    sc::Bitstream chunk;
    while (sx.next_chunk(chunk, engine::kDefaultChunkBits) > 0) {
      chunks_x.push_back(chunk);
      sy.next_chunk(chunk, engine::kDefaultChunkBits);
      chunks_y.push_back(chunk);
    }
  }

  bench::Harness harness("kernel_fsm", options);
  harness.set_meta("bits_per_circuit", static_cast<std::uint64_t>(bits));
  harness.set_meta("chunk_bits",
                   static_cast<std::uint64_t>(engine::kDefaultChunkBits));

  std::printf("kernel FSM bench: 2^%u bits per circuit, median of %u reps\n\n",
              log2_bits, harness.options().reps);
  std::printf("  %-16s %-14s %-14s %-9s %s\n", "circuit", "serial Mbit/s",
              "kernel Mbit/s", "speedup", "identical");

  bool all_identical = true;
  for (const auto& [name, make_transform] : circuits) {
    sc::OverlapCounts serial_counts;
    sc::OverlapCounts kernel_counts;
    const double serial_s = harness.time_case(
        "kernel_fsm/" + name + "/serial", "mbit_per_s",
        static_cast<double>(bits), 1e6,
        [&] {
          run_once(make_transform, chunks_x, chunks_y, bits, /*serial=*/true,
                   &serial_counts);
        },
        config);
    const double kernel_s = harness.time_case(
        "kernel_fsm/" + name + "/kernel", "mbit_per_s",
        static_cast<double>(bits), 1e6,
        [&] {
          run_once(make_transform, chunks_x, chunks_y, bits, /*serial=*/false,
                   &kernel_counts);
        },
        config);
    const bool identical = serial_counts.a == kernel_counts.a &&
                           serial_counts.b == kernel_counts.b &&
                           serial_counts.c == kernel_counts.c &&
                           serial_counts.d == kernel_counts.d;
    // Bit-identity is config-independent: a --quick run still gates it.
    harness.exact_case("kernel_fsm/" + name + "/identical", identical ? 1 : 0);
    all_identical = all_identical && identical;
    std::printf("  %-16s %-14.2f %-14.2f %-9.2f %s\n", name.c_str(),
                bits / serial_s / 1e6, bits / kernel_s / 1e6,
                serial_s / kernel_s, identical ? "yes" : "NO (BUG)");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: kernel path diverged from the bit-serial FSMs\n");
    return 1;
  }
  if (!harness.write_json()) return 1;
  return 0;
}
