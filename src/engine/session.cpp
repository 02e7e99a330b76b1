#include "engine/session.hpp"

#include <chrono>

#include "obs/telemetry.hpp"

namespace sc::engine {

std::uint64_t job_seed(std::uint64_t base_seed, std::size_t job_index) {
  // splitmix64: advance by the index, then finalize.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                    (static_cast<std::uint64_t>(job_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t strided_seed32(std::uint64_t base_seed, std::size_t job_index) {
  const auto base = static_cast<std::uint32_t>(job_seed(base_seed, 0));
  // 0x9e3779b1 is odd, hence invertible mod 2^w for every w: consecutive
  // indices cover all residues of a width-w register before repeating.
  return base + static_cast<std::uint32_t>(job_index) * 0x9e3779b1u;
}

Session::Session(SessionConfig config)
    : config_(config), pool_(config.threads) {
  if (config_.chunk_bits == 0) config_.chunk_bits = kDefaultChunkBits;
  telemetry_ = obs::fallback(config_.telemetry);
  pool_.attach_telemetry(telemetry_);
}

void Session::for_each(std::size_t count,
                       const std::function<void(std::size_t)>& fn) {
  if (telemetry_ == nullptr) {
    pool_.for_each(count, fn);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  pool_.for_each(count, fn);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  obs::MetricsRegistry& metrics = telemetry_->metrics();
  metrics.counter("engine.batches").inc();
  metrics.counter("engine.jobs").add(count);
  metrics.gauge("engine.batch.jobs_per_second")
      .set(seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0);
  metrics.histogram("engine.batch.duration_us")
      .observe(static_cast<std::uint64_t>(seconds * 1e6));
}

}  // namespace sc::engine
