/// \file thread_pool.hpp
/// Fixed-size worker pool with one entry point, for_each.
///
/// The engine's unit of parallelism is the *job*: an independent,
/// deterministic function of its inputs (a graph execution, an image tile,
/// a sweep point).  Jobs never share mutable state, so the pool needs no
/// work stealing or priorities — a single locked queue drained by N workers
/// saturates the embarrassingly parallel workloads this library produces.
///
/// Determinism contract: the pool schedules jobs in an arbitrary order, so
/// callers that need reproducible output must make every job a pure
/// function of its index (see Session::map, which writes each result into a
/// preallocated slot).  Under that contract results are bit-identical for
/// every pool size, including 1.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sc::obs {
class Counter;
class Gauge;
class Histogram;
class Telemetry;
}  // namespace sc::obs

namespace sc::engine {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned threads = 0);

  /// Joins the workers.  No for_each may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Runs body(i) for every i in [0, count) and returns once every index
  /// has run.  The indices are split into min(count, 4 x size())
  /// contiguous blocks, so a slow block does not serialize the tail and
  /// the queue never holds one task per index.  After every block has
  /// finished — blocks may reference the caller's frame — rethrows the
  /// first exception a block threw (a block stops at its throwing index).
  ///
  /// Called from one of this pool's own workers (a job that fans out
  /// again, e.g. an engine-backend run inside Session::map on the same
  /// session), the indices run inline on that worker: waiting on the queue
  /// there could deadlock once every worker waits.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Resolved worker count for a requested thread count (0 = hardware).
  static unsigned resolve_threads(unsigned requested);

  /// Binds (or, with nullptr, unbinds) a telemetry context.  While bound,
  /// the pool maintains the "engine.pool.queue_depth" gauge (value + max),
  /// the "engine.pool.task_wait_us" histogram (enqueue -> dequeue latency),
  /// and the "engine.pool.backpressure_stalls" counter (blocks of a
  /// for_each that found other calls' blocks still queued when it began
  /// to enqueue; a call's own blocks never count against it).  Unbound —
  /// the default — the queue carries no timestamps and no clock is read.
  /// Call before running work; instrument pointers are swapped under the
  /// queue lock.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  /// One for_each call's shared state (thread_pool.cpp), guarded by
  /// mutex_; it lives on the caller's stack until its last block has
  /// finished.
  struct Batch;

  /// Queue entry: indices [lo, hi) of one batch plus the enqueue timestamp
  /// (0 when the pool had no telemetry — no clock read on that path).
  struct Block {
    Batch* batch = nullptr;
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::uint64_t enqueued_us = 0;
  };

  void worker_loop();
  static std::exception_ptr run_block(const Block& block);

  std::mutex mutex_;
  std::queue<Block> queue_;         // guarded by mutex_
  bool stop_ = false;               // guarded by mutex_
  std::condition_variable cv_;      // work queued, or stop_
  std::condition_variable done_;    // a block finished

  obs::Gauge* queue_depth_ = nullptr;  // guarded by mutex_
  obs::Histogram* task_wait_ = nullptr;
  obs::Counter* stalls_ = nullptr;

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace sc::engine
