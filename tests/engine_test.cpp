/// Tests for the batched streaming execution engine: thread pool
/// semantics, deterministic per-job seeding, the chunk SNG source,
/// chunked processing (test::chunked_apply, the executor's way of driving
/// a circuit) that is bit-identical to whole-stream core::apply, bounded
/// buffering on long streams, and thread-count invariance of the batch
/// entry points.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bitstream/correlation.hpp"
#include "core/decorrelator.hpp"
#include "core/pair_transform.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/session.hpp"
#include "engine/thread_pool.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "obs/telemetry.hpp"
#include "rng/lfsr.hpp"
#include "test_util.hpp"

namespace sc::engine {
namespace {

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPool, ForEachCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachDrainsBeforeRethrowing) {
  // An early job failure must not unwind while other executors still run
  // indices that hold references into the caller's frame: for_each may
  // only rethrow after every started index has finished.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.for_each(200,
                             [&ran](std::size_t i) {
                               if (i == 0) throw std::runtime_error("boom");
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(50));
                               ran.fetch_add(1);
                             }),
               std::runtime_error);
  const int settled = ran.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(ran.load(), settled);  // no task still touching `ran` after return
}

TEST(ThreadPool, FanOutsOnAnIdlePoolCountNoBackpressureStalls) {
  // Each for_each takes its batch off the queue before it returns, so the
  // next call finds the queue empty: a call never stalls behind itself.
  obs::Telemetry telemetry;
  ThreadPool pool(4);
  pool.attach_telemetry(&telemetry);
  for (int call = 0; call < 3; ++call) pool.for_each(64, [](std::size_t) {});
  pool.attach_telemetry(nullptr);
  EXPECT_EQ(
      telemetry.metrics().counter("engine.pool.backpressure_stalls").value(),
      0u);
}

TEST(ThreadPool, FanOutQueuedBehindAnotherCallsBlocksCountsStalls) {
  // Both executors, the first call's caller and the one worker, held
  // inside that call's indices, so its fan-out stays queued with indices
  // unclaimed; a second call then finds it queued, and its four indices
  // count as stalled.
  obs::Telemetry telemetry;
  const obs::Counter& stalls =
      telemetry.metrics().counter("engine.pool.backpressure_stalls");
  ThreadPool pool(2);
  pool.attach_telemetry(&telemetry);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread first([&] {
    pool.for_each(8, [&](std::size_t) {
      holding = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!holding) std::this_thread::yield();
  std::thread second([&] { pool.for_each(4, [](std::size_t) {}); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stalls.value() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  release = true;
  first.join();
  second.join();
  pool.attach_telemetry(nullptr);
  EXPECT_EQ(stalls.value(), 4u);
}

TEST(ThreadPool, SingleThreadPoolRunsEveryIndexOnTheCaller) {
  // A 1-thread pool is its caller alone: it starts no worker.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::thread::id> ran_on(64);
  pool.for_each(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ThreadPool, CallerFinishesItsFanOutWhileTheWorkerIsHeld) {
  // A first call holds both executors, its caller and the one worker,
  // inside its indices.  A second call then has only its own caller, which
  // runs every index itself and returns without waiting for the worker.
  // The watchdog releases the first call after a deadline, so a pool whose
  // callers wait on the workers fails here instead of hanging.
  ThreadPool pool(2);
  std::atomic<int> held{0};
  std::atomic<bool> release{false};
  std::thread first([&] {
    pool.for_each(2, [&](std::size_t) {
      held.fetch_add(1);
      while (!release) std::this_thread::yield();
    });
  });
  std::atomic<bool> second_returned{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!second_returned && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    release = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (held.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const int held_before = held.load();
  std::atomic<int> ran{0};
  pool.for_each(16, [&ran](std::size_t) { ran.fetch_add(1); });
  const bool released_before_return = release.load();
  second_returned = true;
  watchdog.join();
  first.join();
  EXPECT_EQ(held_before, 2);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_FALSE(released_before_return);
}

TEST(ThreadPool, ConcurrentCallersRunEveryIndexOnce) {
  // Three callers' fan-outs share the queue and the workers; each call
  // still runs each of its indices exactly once.
  ThreadPool pool(4);
  constexpr int kRounds = 10;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&pool, &wrong] {
      std::vector<std::atomic<int>> hits(1000);
      for (int round = 1; round <= kRounds; ++round) {
        pool.for_each(hits.size(),
                      [&hits](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto& h : hits) {
          if (h.load() != round) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

// --- seeding -------------------------------------------------------------------

TEST(ThreadPool, ZeroRequestAlwaysResolvesToAtLeastOneWorker) {
  // resolve_threads(0) falls back to hardware_concurrency(), which the
  // standard allows to return 0; the clamp must still yield >= 1 executor,
  // since the pool starts one worker fewer than that.
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.for_each(3, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(JobSeed, DeterministicAndDistinct) {
  EXPECT_EQ(job_seed(7, 3), job_seed(7, 3));
  EXPECT_NE(job_seed(7, 3), job_seed(7, 4));
  EXPECT_NE(job_seed(7, 3), job_seed(8, 3));
}

TEST(JobSeed, StridedSeedsDistinctInLowWidthBits) {
  // The library's LFSRs keep only the low `width` seed bits, so per-job
  // seeds must stay distinct in that range or jobs silently duplicate
  // RNG schedules.  256 consecutive strided seeds cover all 8-bit
  // residues exactly once (and likewise for every width).
  std::set<std::uint32_t> low8;
  std::set<std::uint32_t> low16;
  for (std::size_t i = 0; i < 256; ++i) {
    low8.insert(strided_seed32(42, i) & 0xFFu);
    low16.insert(strided_seed32(42, i) & 0xFFFFu);
  }
  EXPECT_EQ(low8.size(), 256u);
  EXPECT_EQ(low16.size(), 256u);
}

// --- chunk sources -------------------------------------------------------------

TEST(ChunkedStream, SngSourceRejectsNullSource) {
  // Checked at construction: in Release the first next_chunk() would
  // dereference it.
  EXPECT_THROW(SngChunkSource(nullptr, 128, 256), std::invalid_argument);
}

TEST(ChunkedStream, SngSourceFullScaleLevelAtWidth32) {
  // Regression companion to Sng's natural-length fix: the engine SNG
  // source takes a 64-bit level so 2^32 (p = 1.0 at width 32) does not
  // wrap to 0 and emit all-zero streams.
  SngChunkSource source(std::make_unique<rng::Lfsr>(32, 0xF00D),
                        std::uint64_t{1} << 32, 256);
  Bitstream chunk;
  ASSERT_EQ(source.next_chunk(chunk, 256), 256u);
  EXPECT_EQ(chunk.count_ones(), 256u);
}

TEST(ChunkedStream, SngSourceMatchesWholeStreamSng) {
  const std::size_t n = 1000;
  const std::size_t chunk_bits = 96;
  convert::Sng whole(std::make_unique<rng::Lfsr>(8, 5));
  const Bitstream expected = whole.generate(144, n);

  SngChunkSource source(std::make_unique<rng::Lfsr>(8, 5), 144, n);
  Bitstream collected(n);
  Bitstream chunk;
  ChunkedRunStats stats;
  while (source.next_chunk(chunk, chunk_bits) > 0) {
    test::copy_bits(chunk, 0, collected, stats.bits, chunk.size());
    stats.bits += chunk.size();
    ++stats.chunks;
    stats.peak_buffer_bits = std::max(stats.peak_buffer_bits, chunk.size());
  }
  EXPECT_EQ(collected, expected);
  EXPECT_EQ(stats.bits, n);
  EXPECT_EQ(stats.chunks, (n + chunk_bits - 1) / chunk_bits);
  EXPECT_LE(stats.peak_buffer_bits, chunk_bits);
}

// --- chunked vs whole-stream FSM equivalence -----------------------------------

TEST(ChunkedStream, DecorrelatorChunkedEqualsWholeStream) {
  const std::size_t n = 2048;
  const Bitstream x = test::lfsr_stream(150, 3, n);
  const Bitstream y = test::lfsr_stream(150, 3, n);  // SCC = +1 copy

  for (const std::size_t chunk_bits : {64u, 100u, 256u, 1000u, 4096u}) {
    core::Decorrelator whole(8, std::make_unique<rng::Lfsr>(8, 11),
                             std::make_unique<rng::Lfsr>(8, 12, 3));
    const sc::StreamPair expected = core::apply(whole, x, y);

    core::Decorrelator chunked(8, std::make_unique<rng::Lfsr>(8, 11),
                               std::make_unique<rng::Lfsr>(8, 12, 3));
    ChunkedRunStats stats;
    const sc::StreamPair got =
        test::chunked_apply(chunked, x, y, chunk_bits, &stats);

    EXPECT_EQ(got.x, expected.x) << "chunk_bits=" << chunk_bits;
    EXPECT_EQ(got.y, expected.y) << "chunk_bits=" << chunk_bits;
    EXPECT_LE(stats.peak_buffer_bits, 2 * chunk_bits);
  }
}

TEST(ChunkedStream, SynchronizerFlushSurvivesChunking) {
  // Flush mode counts remaining cycles from begin_stream(total): a chunked
  // driver that reset per chunk would flush early and diverge.
  const std::size_t n = 512;
  const Bitstream x = test::vdc_stream(170, n);
  const Bitstream y = test::halton3_stream(90, n);

  for (const bool flush : {false, true}) {
    core::Synchronizer whole({2, flush});
    const sc::StreamPair expected = core::apply(whole, x, y);

    core::Synchronizer chunked({2, flush});
    const sc::StreamPair got =
        test::chunked_apply(chunked, x, y, /*chunk_bits=*/100);

    EXPECT_EQ(got.x, expected.x) << "flush=" << flush;
    EXPECT_EQ(got.y, expected.y) << "flush=" << flush;
  }
}

TEST(ChunkedStream, TfmChunkedEqualsWholeStream) {
  const std::size_t n = 1024;
  const Bitstream x = test::lfsr_stream(80, 21, n);

  core::TrackingForecastMemory whole({8, 3, 0.5},
                                     std::make_unique<rng::Lfsr>(8, 31));
  const Bitstream expected = core::apply(whole, x);

  core::TrackingForecastMemory chunked({8, 3, 0.5},
                                       std::make_unique<rng::Lfsr>(8, 31));
  EXPECT_EQ(test::chunked_apply(chunked, x, 130), expected);
}

// --- long-stream processing ----------------------------------------------------

TEST(ChunkedStream, LongStreamBoundedBuffering) {
  // A 2^24-bit maximally correlated pair through the chunked decorrelator:
  // peak buffering stays at the two chunk buffers (never the 2 MiB
  // stream), the output equals the whole-stream run, values are preserved
  // and SCC is driven toward 0.
  const std::size_t n = std::size_t{1} << 24;
  const std::size_t chunk = kDefaultChunkBits;
  const Bitstream x = test::packed_lfsr_stream(16, 0xACE1, 0, 24000, n);
  const Bitstream y = test::packed_lfsr_stream(16, 0xACE1, 0, 24000, n);

  const auto decorrelator = [] {
    return core::Decorrelator(64, std::make_unique<rng::Lfsr>(16, 0xBEEF),
                              std::make_unique<rng::Lfsr>(16, 0xCAFE, 5));
  };
  core::Decorrelator whole = decorrelator();
  const sc::StreamPair expected = core::apply(whole, x, y);
  core::Decorrelator dec = decorrelator();
  ChunkedRunStats stats;
  const sc::StreamPair out = test::chunked_apply(dec, x, y, chunk, &stats);
  EXPECT_EQ(out.x, expected.x);
  EXPECT_EQ(out.y, expected.y);

  EXPECT_EQ(stats.bits, n);
  EXPECT_EQ(stats.chunks, n / chunk);
  EXPECT_LE(stats.peak_buffer_bits, 2 * chunk);  // never the whole stream

  const double p = 24000.0 / 65536.0;
  EXPECT_NEAR(out.x.value(), p, 0.01);
  EXPECT_NEAR(out.y.value(), p, 0.01);
  EXPECT_LT(std::abs(scc(out.x, out.y)), 0.05);  // decorrelated from SCC = +1
}

// --- batch / session invariance ------------------------------------------------

graph::Program batch_graph() {
  graph::GraphBuilder g;
  const graph::Value a = g.input("a", 0.6, 0);
  const graph::Value b = g.input("b", 0.5, 0);
  const graph::Value c = g.input("c", 0.3, 1);
  const graph::Value d = g.input("d", 0.8, 1);
  const graph::Value ab = g.op("multiply", {a, b});
  const graph::Value cd = g.op("multiply", {c, d});
  g.output(g.op("scaled-add", {ab, cd}));
  return g.build();
}

TEST(Session, MapPreservesIndexOrder) {
  obs::Telemetry telemetry;
  Session session({4, kDefaultChunkBits, 99, &telemetry});
  const std::vector<std::size_t> out = session.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  const obs::MetricsSnapshot snapshot = telemetry.snapshot();
  EXPECT_EQ(snapshot.counters.at("engine.jobs"), 100u);
  EXPECT_EQ(snapshot.counters.at("engine.batches"), 1u);
}

TEST(Session, MapJobsMayRunTheSessionsEngineBackend) {
  // A job that runs an engine backend bound to its own session fans the
  // program's levels out from a pool worker; those run inline there
  // rather than waiting on a queue that every worker may be waiting on.
  graph::GraphBuilder b;
  const graph::Value x = b.input("x", 0.6, 0);
  const graph::Value y = b.input("y", 0.3, 1);
  b.output(b.op("multiply", {x, y}), "xy");
  const graph::Program g = b.build();
  const graph::ProgramPlan plan =
      graph::plan_program(g, graph::Strategy::kManipulation);

  for (const unsigned threads : {1u, 2u}) {
    Session session({threads, 256, 0x5eed});
    const auto backend = graph::make_engine_backend(session);
    std::vector<graph::ExecConfig> configs(4);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      configs[i].stream_length = 1000;
      configs[i].seed = session.strided_seed_for(i);
    }
    const std::vector<double> nested = session.map<double>(
        configs.size(), [&](std::size_t i) {
          return backend->run(g, plan, configs[i]).values.at(0);
        });
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(nested[i], backend->run(g, plan, configs[i]).values.at(0))
          << threads << " workers, job " << i;
    }
  }
}

TEST(GraphBatch, BitIdenticalAcrossThreadCounts) {
  const graph::Program g = batch_graph();
  const graph::ProgramPlan plan =
      graph::plan_program(g, graph::Strategy::kManipulation);

  Session one({1, kDefaultChunkBits, 42});
  Session many({4, kDefaultChunkBits, 42});
  std::vector<graph::ExecConfig> configs(24);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].seed = one.strided_seed_for(i);
  }
  ASSERT_EQ(configs.size(), 24u);
  // Identical session base seeds derive identical sweeps.
  EXPECT_EQ(configs[5].seed, many.strided_seed_for(5));

  const auto run_batch = [&](Session& session) {
    return session.map<graph::ExecutionResult>(
        configs.size(), [&](std::size_t i) {
          return graph::make_backend(graph::BackendKind::kKernel)
              ->run(g, plan, configs[i]);
        });
  };
  const auto serial = run_batch(one);
  const auto parallel = run_batch(many);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t j = 0; j < serial.size(); ++j) {
    ASSERT_EQ(serial[j].streams.size(), parallel[j].streams.size());
    for (std::size_t s = 0; s < serial[j].streams.size(); ++s) {
      EXPECT_EQ(serial[j].streams[s], parallel[j].streams[s])
          << "job " << j << " stream " << s;
    }
    EXPECT_EQ(serial[j].mean_abs_error, parallel[j].mean_abs_error);
  }
}

TEST(GraphBatch, MatchesSequentialRuns) {
  const graph::Program g = batch_graph();
  const graph::ProgramPlan plan =
      graph::plan_program(g, graph::Strategy::kRegeneration);
  const auto kernel = graph::make_backend(graph::BackendKind::kKernel);

  Session session({3, kDefaultChunkBits, 7});
  std::vector<graph::ExecConfig> configs(10);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].seed = session.strided_seed_for(i);
  }
  const auto batched = session.map<graph::ExecutionResult>(
      configs.size(), [&](std::size_t i) {
        return graph::make_backend(graph::BackendKind::kKernel)
            ->run(g, plan, configs[i]);
      });

  for (std::size_t j = 0; j < configs.size(); ++j) {
    const graph::ExecutionResult direct = kernel->run(g, plan, configs[j]);
    ASSERT_EQ(batched[j].streams.size(), direct.streams.size());
    for (std::size_t s = 0; s < direct.streams.size(); ++s) {
      EXPECT_EQ(batched[j].streams[s], direct.streams[s]);
    }
  }
}

TEST(PipelineTiled, BitIdenticalAcrossThreadCounts) {
  // Tile 7 on 30x30: 25 tiles, the last row and column of them partial.
  const img::Image input = img::Image::synthetic_scene(30, 30, 5);
  img::PipelineConfig config;
  config.tile = 7;

  Session one({1});
  Session two({2});
  Session four({4});
  for (const img::Variant variant :
       {img::Variant::kNoManipulation, img::Variant::kRegeneration,
        img::Variant::kSynchronizer}) {
    const img::PipelineResult a =
        img::run_pipeline_tiled(input, variant, config, one);
    for (Session* session : {&two, &four}) {
      const img::PipelineResult b =
          img::run_pipeline_tiled(input, variant, config, *session);
      ASSERT_EQ(a.output.pixel_count(), b.output.pixel_count());
      // Exact, not approximate.
      EXPECT_EQ(a.output.pixels(), b.output.pixels())
          << img::to_string(variant) << " on " << session->threads()
          << " workers";
      EXPECT_EQ(a.error, b.error);
    }
  }
}

TEST(PipelineTiled, AccuracyComparableToSerialEngine) {
  const img::Image input = img::Image::synthetic_scene(20, 20, 11);
  img::PipelineConfig config;
  config.tile = 10;

  Session session({2});
  const img::PipelineResult serial =
      img::run_pipeline(input, img::Variant::kSynchronizer, config);
  const img::PipelineResult tiled = img::run_pipeline_tiled(
      input, img::Variant::kSynchronizer, config, session);

  // Different (but equally valid) RNG schedules: outputs differ bitwise,
  // accuracy must stay in the same regime.
  EXPECT_NEAR(tiled.error, serial.error, 0.05);
  EXPECT_EQ(tiled.cost.tiles, serial.cost.tiles);
}

}  // namespace
}  // namespace sc::engine
