/// \file session.hpp
/// Top-level handle of the execution engine: one pool, one configuration.
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
#include <functional>
#include <type_traits>
#include <vector>

#include "engine/chunked_stream.hpp"
#include "engine/thread_pool.hpp"

namespace sc::engine {

/// Mixes a base seed and a job index into an independent 64-bit seed
/// (splitmix64 finalizer: consecutive indices land far apart, so per-job
/// LFSRs / generators start decorrelated).
std::uint64_t job_seed(std::uint64_t base_seed, std::size_t job_index);

/// Per-job 32-bit seed for width-masked generators.  The library's LFSRs
/// keep only the low `width` bits of their seed (rng::Lfsr masks, then
/// remaps 0 to 1), so hashed seeds birthday-collide in the low 8 bits
/// after a few dozen jobs — silently running duplicate RNG schedules.
/// This variant walks an odd stride from a hashed base, which is a unit
/// mod every power of two: any 2^w consecutive indices yield 2^w
/// *distinct* residues mod 2^w, the strongest decorrelation a width-w
/// generator can express.  Use it whenever the consumer is an LFSR-style
/// seed; use job_seed for full-width consumers.
///
/// Residual limit (pigeonhole): a width-w LFSR has only 2^w - 1 nonzero
/// states, and rng::Lfsr remaps a masked-zero seed to 1 — so in each
/// window of 2^w consecutive jobs, the one job whose masked seed is 0
/// shares that single generator's schedule with the residue-1 job.
/// Consumers that derive several generators with distinct offsets (the
/// executor, the pipeline tile engines) only ever alias one
/// sub-generator per window this way, never a whole job.
std::uint32_t strided_seed32(std::uint64_t base_seed, std::size_t job_index);

struct SessionConfig {
  /// Executors, counting the thread that calls map()/for_each(): the pool
  /// starts `threads - 1` workers.  0 = one per hardware thread.
  unsigned threads = 0;
  /// Chunk size for long-stream processing, in bits.
  std::size_t chunk_bits = kDefaultChunkBits;
  /// Base seed of the deterministic per-job seeding scheme.
  std::uint64_t base_seed = 0x5eedULL;
  /// Telemetry context (src/obs/): the session attaches it to its pool
  /// (queue depth / task wait / backpressure metrics), records each
  /// map()/for_each() batch into it as engine.batches / engine.jobs /
  /// engine.batch.*, and engine-backend runs bound to the session also
  /// record their engine.chunked_runs / engine.chunks /
  /// engine.stream_bits / engine.buffer.peak_bits there.  Non-owning;
  /// nullptr = env fallback (SC_TRACE/SC_METRICS), exactly as
  /// graph::ExecConfig::telemetry.  Observation never changes results.
  obs::Telemetry* telemetry = nullptr;
};

class Session {
 public:
  explicit Session(SessionConfig config = {});

  const SessionConfig& config() const noexcept { return config_; }
  ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }
  /// The resolved telemetry context (config's, else env; may be nullptr).
  [[nodiscard]] obs::Telemetry* telemetry() const noexcept { return telemetry_; }

  /// Width-safe per-job seed for LFSR-style consumers that mask seeds to
  /// their register width — see strided_seed32.
  [[nodiscard]] std::uint32_t strided_seed_for(std::size_t index) const {
    return strided_seed32(config_.base_seed, index);
  }

  /// Runs fn(i) for i in [0, count) across the pool and returns the
  /// results ordered by index.  R must be default-constructible (results
  /// are written into preallocated slots).  Rethrows the first job
  /// exception.
  template <typename R>
  std::vector<R> map(std::size_t count,
                     const std::function<R(std::size_t)>& fn) {
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs bits: concurrent writes to "
                  "distinct indices race; map to char/int instead");
    std::vector<R> results(count);
    for_each(count, [&results, &fn](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Index-only form for jobs that write their own output slots.  With
  /// telemetry bound, records the batch as engine.batches, engine.jobs,
  /// the engine.batch.jobs_per_second gauge and the
  /// engine.batch.duration_us histogram.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  SessionConfig config_;
  ThreadPool pool_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace sc::engine
