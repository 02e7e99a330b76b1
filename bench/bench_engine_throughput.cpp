/// \file bench_engine_throughput.cpp
/// Throughput of the batched streaming execution engine.
///
/// Three workloads, each swept over worker-thread counts:
///   1. chunked-stream: a maximally correlated pair generated,
///      decorrelated, and reduced chunk-at-a-time (never materialized) —
///      reports Mbit/s and the peak engine-side buffer.
///   2. graph-batch: independent seeded executions of the planner's
///      product-sum graph fanned through BatchRunner — reports jobs/s and
///      verifies bit-identical results against the single-thread run.
///   3. tiled-pipeline: the §IV image accelerator with tiles fanned across
///      the pool — reports tiles/s.
///
/// Harness bench (bench_harness.hpp).  Cases: engine/chunked_stream
/// (throughput) plus engine/chunked_stream/peak_buffer_bits (exact — the
/// constant-memory contract), engine/graph_batch/t<N> (throughput,
/// jobs/s) plus .../identical (exact), engine/tiled_pipeline/t<N>
/// (throughput, tiles/s).
///
/// Usage: bench_engine_throughput [--json PATH] [--reps N] [--warmup N]
///        [--quick] [--threads 1,2,4,8] [--stream-bits LOG2] [--jobs N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "bitstream/correlation.hpp"
#include "core/decorrelator.hpp"
#include "engine/batch.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/session.hpp"
#include "engine/thread_pool.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "rng/lfsr.hpp"

namespace {

/// Workload 1: one long pair generated, decorrelated and reduced to its
/// overlap counts chunk by chunk — begin_stream(total) once, then one
/// process() call per chunk pair, state carried across chunks; returns
/// the run stats for the peak-buffer contract.
sc::engine::ChunkedRunStats run_stream_workload(std::size_t stream_bits,
                                                std::size_t chunk_bits,
                                                double* scc) {
  using namespace sc;
  engine::SngChunkSource sx(std::make_unique<rng::Lfsr>(16, 0xACE1), 24000,
                            stream_bits);
  engine::SngChunkSource sy(std::make_unique<rng::Lfsr>(16, 0xACE1), 24000,
                            stream_bits);
  core::Decorrelator dec(16, std::make_unique<rng::Lfsr>(16, 0xBEEF),
                         std::make_unique<rng::Lfsr>(16, 0xCAFE, 5));
  dec.begin_stream(stream_bits);
  engine::ChunkedRunStats stats;
  OverlapCounts counts;
  Bitstream chunk_x;
  Bitstream chunk_y;
  while (sx.next_chunk(chunk_x, chunk_bits) > 0) {
    sy.next_chunk(chunk_y, chunk_bits);
    dec.process(chunk_x.word_data(), chunk_y.word_data(), chunk_x.size());
    const OverlapCounts piece = overlap(chunk_x, chunk_y);
    counts.a += piece.a;
    counts.b += piece.b;
    counts.c += piece.c;
    counts.d += piece.d;
    stats.bits += chunk_x.size();
    ++stats.chunks;
    stats.peak_buffer_bits = std::max(stats.peak_buffer_bits,
                                      chunk_x.size() + chunk_y.size());
  }
  *scc = sc::scc(counts);
  return stats;
}

sc::graph::Program bench_graph() {
  using namespace sc::graph;
  GraphBuilder g;
  const Value a = g.input("a", 0.6, 0);
  const Value b = g.input("b", 0.5, 0);
  const Value c = g.input("c", 0.3, 1);
  const Value d = g.input("d", 0.8, 1);
  const Value ab = g.op("multiply", {a, b});
  const Value cd = g.op("multiply", {c, d});
  g.output(g.op("scaled-add", {ab, cd}));
  return g.build();
}

std::vector<unsigned> parse_threads(const char* arg) {
  std::vector<unsigned> out;
  const std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    out.push_back(
        static_cast<unsigned>(std::strtoul(s.c_str() + pos, nullptr, 10)));
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::HarnessOptions options;
  std::vector<std::string> rest;
  if (!sc::bench::parse_harness_options(argc, argv, &options, &rest)) return 2;

  std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  unsigned log2_bits = options.quick ? 21 : 24;
  std::size_t jobs = options.quick ? 64 : 256;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--threads" && i + 1 < rest.size()) {
      thread_counts = parse_threads(rest[++i].c_str());
    } else if (rest[i] == "--stream-bits" && i + 1 < rest.size()) {
      log2_bits = static_cast<unsigned>(std::atoi(rest[++i].c_str()));
    } else if (rest[i] == "--jobs" && i + 1 < rest.size()) {
      jobs = static_cast<std::size_t>(std::atoll(rest[++i].c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--reps N] [--warmup N] [--quick] "
                   "[--threads 1,2,4] [--stream-bits LOG2] [--jobs N]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned hw = sc::engine::ThreadPool::resolve_threads(0);
  sc::bench::Harness harness("engine_throughput", options);
  harness.set_meta("hardware_threads", static_cast<std::uint64_t>(hw));
  harness.set_meta("jobs", static_cast<std::uint64_t>(jobs));
  harness.set_meta("chunk_bits",
                   static_cast<std::uint64_t>(sc::engine::kDefaultChunkBits));
  std::printf("engine throughput bench (hardware threads: %u, median of %u "
              "reps)\n\n",
              hw, harness.options().reps);

  // --- workload 1: chunked long-stream decorrelation -----------------------
  const std::size_t stream_bits = std::size_t{1} << log2_bits;
  const std::string stream_config = "stream_bits=" + std::to_string(log2_bits);
  sc::engine::ChunkedRunStats stream_stats;
  double scc = 0.0;
  const double stream_s = harness.time_case(
      "engine/chunked_stream", "mbit_per_s", static_cast<double>(stream_bits),
      1e6,
      [&] {
        stream_stats = run_stream_workload(
            stream_bits, sc::engine::kDefaultChunkBits, &scc);
      },
      stream_config);
  // Peak buffer is the engine's constant-memory contract: it depends only
  // on the chunk budget, never on the stream length, so it gates even on
  // --quick runs.
  harness.exact_case("engine/chunked_stream/peak_buffer_bits",
                     stream_stats.peak_buffer_bits,
                     "chunk_bits=" +
                         std::to_string(sc::engine::kDefaultChunkBits));
  std::printf("chunked decorrelator: 2^%u bits in %.3f s = %.2f Mbit/s\n",
              log2_bits, stream_s, stream_bits / stream_s / 1e6);
  std::printf("  peak engine buffer: %zu bits (chunk budget %zu x 2), "
              "output SCC %.4f\n\n",
              stream_stats.peak_buffer_bits, sc::engine::kDefaultChunkBits,
              scc);

  // --- workload 2: graph execution batch -----------------------------------
  const sc::graph::Program g = bench_graph();
  const sc::graph::ProgramPlan plan =
      sc::graph::plan_program(g, sc::graph::Strategy::kManipulation);
  const std::string batch_config = "jobs=" + std::to_string(jobs);

  std::vector<sc::graph::ExecutionResult> baseline;
  bool all_identical = true;
  double batch_base_rate = 0.0;
  std::printf("graph batch (%zu jobs, N=4096):\n", jobs);
  std::printf("  %-8s %-10s %-12s %-10s %s\n", "threads", "seconds", "jobs/s",
              "speedup", "identical");
  for (const unsigned t : thread_counts) {
    sc::engine::Session session({t, sc::engine::kDefaultChunkBits, 42});
    std::vector<sc::graph::ExecConfig> configs(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      configs[i].stream_length = 4096;
      configs[i].seed = session.strided_seed_for(i);
    }
    std::vector<sc::graph::ExecutionResult> results;
    const double median_s = harness.time_case(
        "engine/graph_batch/t" + std::to_string(session.threads()), "jobs_per_s",
        static_cast<double>(jobs), 1.0,
        [&] {
          results = session.map<sc::graph::ExecutionResult>(
              jobs, [&](std::size_t i) {
                return sc::graph::make_backend(sc::graph::BackendKind::kKernel)
                    ->run(g, plan, configs[i]);
              });
        },
        batch_config);
    bool identical = true;
    if (baseline.empty()) {
      baseline = std::move(results);
    } else {
      for (std::size_t j = 0; j < results.size(); ++j) {
        if (results[j].streams != baseline[j].streams) {
          identical = false;
          break;
        }
      }
    }
    harness.exact_case("engine/graph_batch/t" +
                           std::to_string(session.threads()) + "/identical",
                       identical ? 1 : 0, batch_config);
    all_identical = all_identical && identical;
    const double rate = jobs / median_s;
    if (batch_base_rate == 0.0) batch_base_rate = rate;
    std::printf("  %-8u %-10.3f %-12.1f %-10.2f %s\n", session.threads(),
                median_s, rate, rate / batch_base_rate,
                identical ? "yes" : "NO (BUG)");
  }
  std::printf("\n");

  // --- workload 3: tiled image pipeline -------------------------------------
  const sc::img::Image scene = sc::img::Image::synthetic_scene(40, 40, 7);
  std::printf("tiled pipeline (40x40 scene, synchronizer variant):\n");
  std::printf("  %-8s %-10s %-12s %s\n", "threads", "seconds", "tiles/s",
              "mean abs err");
  for (const unsigned t : thread_counts) {
    sc::engine::Session session({t});
    sc::img::PipelineConfig config;
    config.tile = 10;
    // One untimed run fixes the tile count (deterministic for this scene
    // and tile size) so the case value is a true tiles/s.
    sc::img::PipelineResult result = sc::img::run_pipeline_tiled(
        scene, sc::img::Variant::kSynchronizer, config, session);
    const double tiles = static_cast<double>(result.cost.tiles);
    const double median_s = harness.time_case(
        "engine/tiled_pipeline/t" + std::to_string(session.threads()),
        "tiles_per_s", tiles, 1.0,
        [&] {
          result = sc::img::run_pipeline_tiled(
              scene, sc::img::Variant::kSynchronizer, config, session);
        },
        "tile=10");
    std::printf("  %-8u %-10.3f %-12.1f %.4f\n", session.threads(), median_s,
                tiles / median_s, result.error);
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: batch results not thread-count invariant\n");
    return 1;
  }
  if (!harness.write_json()) return 1;
  return 0;
}
