/// \file metrics.hpp
/// The metrics half of the telemetry subsystem (src/obs/): a registry of
/// named counters, gauges, and log2-bucket histograms with lock-free
/// hot-path updates and a consistent snapshot/export API.
///
/// Design rules:
///
///  * Instruments are created (or found) by name in the registry under a
///    mutex, ONCE per instrumentation site; the returned pointer is stable
///    for the registry's lifetime, so hot paths hold a Counter*/Gauge*/
///    Histogram* and update it with a single relaxed atomic op — no map
///    lookup, no lock, no allocation per event.
///  * Zero cost when disabled: instruments only exist inside an
///    obs::Telemetry context (telemetry.hpp).  Code paths without one
///    never touch this header's types at runtime — the disabled state is
///    the absence of the object, not a flag it checks.
///  * Snapshots are value copies: export (JSON, human table) runs on the
///    copy, never blocking writers.
///
/// Naming convention: dotted lowercase paths, subsystem first —
/// "engine.pool.queue_depth", "backend.bits_processed",
/// "fault.edge.x.corrupted_bits".  Exporters sort by name, so related
/// instruments group in every view.

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double value plus the running maximum (high-water mark).
/// set() is wait-free; the max is maintained with a CAS loop that only
/// spins while the value is actually climbing.
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    double seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// Histogram over fixed log2 buckets: bucket k holds observations v with
/// bit_width(v) == k, i.e. bucket 0 is {0} and bucket k >= 1 is
/// [2^(k-1), 2^k).  64-bit values need at most 65 buckets, so the layout
/// is a flat atomic array — no per-observation allocation, and merging or
/// snapshotting is a loop of relaxed loads.  Quantiles are resolved to the
/// midpoint of the covering bucket: exact enough to tell a 10 us wait from
/// a 10 ms stall, which is what latency histograms are for.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;

  void observe(std::uint64_t v) noexcept {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(unsigned k) const noexcept {
    return buckets_[k].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// ------------------------------------------------------------- snapshot

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;  ///< kBuckets entries

  [[nodiscard]] double mean() const;
  /// Value at quantile q in [0, 1]: midpoint of the covering log2 bucket
  /// (0 for an empty histogram).
  [[nodiscard]] double quantile(double q) const;
};

/// Consistent-enough point-in-time copy of a registry (each instrument is
/// read atomically; the set is read under the registry lock).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  /// name -> {value, max}
  std::map<std::string, std::pair<double, double>> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Machine-readable export: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, p50, p99, buckets}}}, where
  /// buckets maps the index k of every nonzero log2 bucket (see
  /// Histogram) to its count, e.g. {"4": 1} for one observation of 12.
  [[nodiscard]] std::string to_json() const;
  /// Fixed-width human table, one instrument per row.
  [[nodiscard]] std::string to_table() const;
};

// ------------------------------------------------------------- registry

/// Owner of every instrument.  Lookup-or-create is mutex-guarded (cold:
/// once per instrumentation site); returned references are stable until
/// the registry dies.  A name identifies exactly one instrument kind —
/// re-requesting it as a different kind throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_;
};

}  // namespace sc::obs
