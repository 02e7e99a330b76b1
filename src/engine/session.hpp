/// \file session.hpp
/// Top-level handle of the execution engine: one pool, one batch runner,
/// one configuration.
///
/// A Session is what callers thread through the high-level entry points
/// (`graph::make_engine_backend`, `img::run_pipeline_tiled`, benches): it owns
/// the worker pool, fixes the chunk size for long-stream processing, and
/// anchors the deterministic seeding scheme (base seed -> per-job seeds).
/// Two sessions with the same config produce bit-identical results
/// regardless of their thread counts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "engine/batch.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/thread_pool.hpp"

namespace sc::engine {

struct SessionConfig {
  /// Worker threads; 0 = one per hardware thread.
  unsigned threads = 0;
  /// Chunk size for long-stream processing, in bits.
  std::size_t chunk_bits = kDefaultChunkBits;
  /// Base seed of the deterministic per-job seeding scheme.
  std::uint64_t base_seed = 0x5eedULL;
  /// Telemetry context (src/obs/): the session attaches it to its pool
  /// (queue depth / task wait / backpressure metrics) and folds batch and
  /// chunked-run accounting into it as engine.* metrics.  Non-owning;
  /// nullptr = env fallback (SC_TRACE/SC_METRICS), exactly as
  /// graph::ExecConfig::telemetry.  Observation never changes results.
  obs::Telemetry* telemetry = nullptr;
};

/// Lifetime totals across everything a session ran.
struct SessionStats {
  std::size_t batches = 0;
  std::size_t jobs = 0;
  std::size_t chunked_runs = 0;
  std::uint64_t stream_bits = 0;  ///< bits pushed through chunked runs
};

class Session {
 public:
  explicit Session(SessionConfig config = {});

  const SessionConfig& config() const noexcept { return config_; }
  ThreadPool& pool() noexcept { return pool_; }
  BatchRunner& runner() noexcept { return runner_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }
  /// The resolved telemetry context (config's, else env; may be nullptr).
  [[nodiscard]] obs::Telemetry* telemetry() const noexcept { return telemetry_; }

  /// Full-width seed for job `index` under this session's base seed
  /// (hashed; for consumers that use all 64 bits).
  [[nodiscard]] std::uint64_t seed_for(std::size_t index) const {
    return job_seed(config_.base_seed, index);
  }
  /// Width-safe per-job seed for LFSR-style consumers that mask seeds to
  /// their register width — see strided_seed32.
  [[nodiscard]] std::uint32_t strided_seed_for(std::size_t index) const {
    return strided_seed32(config_.base_seed, index);
  }

  /// Runs fn(i) for i in [0, count) across the pool (deterministic result
  /// order) and records batch stats.
  template <typename R>
  std::vector<R> map(std::size_t count,
                     const std::function<R(std::size_t)>& fn) {
    std::vector<R> out = runner_.map<R>(count, fn);
    note_batch(count);
    return out;
  }

  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) {
    runner_.for_each(count, fn);
    note_batch(count);
  }

  /// Folds a chunked run's accounting into the session totals
  /// (thread-safe; chunked runs may execute on workers).  With telemetry
  /// bound, also maintains the engine.chunked_runs / engine.chunks /
  /// engine.stream_bits counters and the engine.buffer.peak_bits gauge —
  /// the same names session-less chunked runs record directly.
  void note_chunked(const ChunkedRunStats& stats);

  [[nodiscard]] SessionStats stats() const;

  /// Stats of the most recent map()/for_each(), including the stream-bits
  /// delta its jobs pushed through chunked runs (so bits_per_second() is
  /// meaningful for graph batches).
  [[nodiscard]] BatchStats last_batch() const;

 private:
  void note_batch(std::size_t jobs);

  SessionConfig config_;
  ThreadPool pool_;
  BatchRunner runner_;
  obs::Telemetry* telemetry_ = nullptr;
  mutable std::mutex stats_mutex_;
  SessionStats stats_;
  BatchStats last_batch_;
  std::uint64_t batch_bits_mark_ = 0;  ///< stream_bits at last note_batch
};

}  // namespace sc::engine
