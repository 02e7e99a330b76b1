/// \file thread_pool.hpp
/// Fixed-size pool of executors with one entry point, for_each.
///
/// The engine's unit of parallelism is the *job*: an independent,
/// deterministic function of its inputs (a graph execution, an image tile,
/// a sweep point).  Jobs never share mutable state, so the pool needs no
/// work stealing or priorities.  A pool of size() executors is the thread
/// calling for_each plus size() - 1 workers: each call queues one batch,
/// and the caller and every worker that joins it claim indices one at a
/// time from the batch's atomic cursor, so the fan-out runs on every
/// executor and no index waits behind a slow one.
///
/// Determinism contract: the pool schedules jobs in an arbitrary order, so
/// callers that need reproducible output must make every job a pure
/// function of its index (see Session::map, which writes each result into a
/// preallocated slot).  Under that contract results are bit-identical for
/// every pool size, including 1.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
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
  /// A pool of `threads` executors (0 means one per hardware thread): the
  /// calling thread and `threads - 1` workers.  A 1-thread pool starts no
  /// worker.
  explicit ThreadPool(unsigned threads = 0);

  /// Joins the workers.  No for_each may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of executors: the workers plus the thread calling for_each.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(i) for every i in [0, count) and returns once every index
  /// has run.  The call queues one batch and wakes idle workers; the
  /// caller then claims indices itself, as does every worker that joins,
  /// one index at a time.  The caller does not sleep while its batch has
  /// an unclaimed index: once none is left, it takes the batch off the
  /// queue and sleeps once, until the last worker still running one of
  /// its indices leaves.  After every started index has finished — bodies
  /// may reference the caller's frame — rethrows the first exception an
  /// index threw; indices not yet started when it was thrown are skipped.
  ///
  /// A 1-thread pool runs the indices inline, in order.  So does a call
  /// from an executor already running one of this pool's indices (a job
  /// that fans out again, e.g. an engine-backend run inside Session::map
  /// on the same session): that covers both the workers and a caller
  /// inside its own fan-out.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Resolved executor count for a requested thread count (0 = hardware).
  static unsigned resolve_threads(unsigned requested);

  /// Binds (or, with nullptr, unbinds) a telemetry context.  While bound,
  /// the pool maintains the "engine.pool.queue_depth" gauge (value + max:
  /// the number of queued fan-outs), the "engine.pool.task_wait_us"
  /// histogram (from a fan-out's enqueue to the first worker that joins
  /// it; a fan-out its caller finishes alone records none), and the
  /// "engine.pool.backpressure_stalls" counter (the indices of each call
  /// that found another call's fan-out still queued).  Unbound — the
  /// default — no clock is read.  Call before running work; instrument
  /// pointers are swapped under the queue lock.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  /// One for_each call's shared state (thread_pool.cpp); it lives on the
  /// caller's stack, and no worker touches it once for_each returns.
  struct Batch;

  void worker_loop();
  /// Removes `batch` from the queue if it is still there.  Needs mutex_.
  void dequeue(const Batch& batch);

  std::mutex mutex_;
  std::deque<Batch*> queue_;        // guarded by mutex_
  bool stop_ = false;               // guarded by mutex_
  std::condition_variable cv_;      // a batch queued, or stop_
  std::condition_variable done_;    // the last worker left a batch

  obs::Gauge* queue_depth_ = nullptr;  // guarded by mutex_
  obs::Histogram* task_wait_ = nullptr;
  obs::Counter* stalls_ = nullptr;

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace sc::engine
