#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>

#include "obs/telemetry.hpp"

namespace sc::engine {
namespace {

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The pool whose indices this thread runs (nullptr outside every fan-out):
/// a worker's own pool, or the pool a caller is running its batch on.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

struct ThreadPool::Batch {
  Batch(const std::function<void(std::size_t)>& body, std::size_t count)
      : body(body), count(count) {}

  /// Claims and runs indices until none is left.  On an exception, moves
  /// the cursor to the end, so no executor starts another index, and
  /// returns it.
  std::exception_ptr run() {
    try {
      for (std::size_t i = next++; i < count; i = next++) body(i);
    } catch (...) {
      next = count;
      return std::current_exception();
    }
    return nullptr;
  }

  [[nodiscard]] bool exhausted() const { return next >= count; }

  const std::function<void(std::size_t)>& body;
  const std::size_t count;
  std::atomic<std::size_t> next{0};  // the next unclaimed index
  unsigned running = 0;              // workers inside run(); guarded by mutex_
  std::exception_ptr error;          // guarded by mutex_
  std::uint64_t enqueued_us = 0;     // guarded by mutex_; 0 = not timed
};

unsigned ThreadPool::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  // The thread calling for_each is the last executor.
  const unsigned workers = resolve_threads(threads) - 1;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::attach_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (telemetry == nullptr) {
    queue_depth_ = nullptr;
    task_wait_ = nullptr;
    stalls_ = nullptr;
    return;
  }
  obs::MetricsRegistry& metrics = telemetry->metrics();
  queue_depth_ = &metrics.gauge("engine.pool.queue_depth");
  task_wait_ = &metrics.histogram("engine.pool.task_wait_us");
  stalls_ = &metrics.counter("engine.pool.backpressure_stalls");
}

void ThreadPool::dequeue(const Batch& batch) {
  const auto it = std::find(queue_.begin(), queue_.end(), &batch);
  if (it == queue_.end()) return;
  queue_.erase(it);
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<double>(queue_.size()));
  }
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || current_pool == this) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  Batch batch(body, count);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Whatever is queued now is other calls' fan-outs, which the workers
    // join first.
    if (stalls_ != nullptr && !queue_.empty()) stalls_->add(count);
    if (task_wait_ != nullptr) batch.enqueued_us = steady_now_us();
    queue_.push_back(&batch);
    if (queue_depth_ != nullptr) {
      queue_depth_->set(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();

  const ThreadPool* const outer = current_pool;
  current_pool = this;
  std::exception_ptr error = batch.run();
  current_pool = outer;

  // No index is left to claim: take the batch off the queue, so no worker
  // joins it any more, and wait for the workers still inside it.
  std::unique_lock<std::mutex> lock(mutex_);
  dequeue(batch);
  if (error && !batch.error) batch.error = std::move(error);
  done_.wait(lock, [&batch] { return batch.running == 0; });
  lock.unlock();
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::worker_loop() {
  current_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;
    Batch& batch = *queue_.front();
    if (batch.exhausted()) {
      // No index is left to claim; the executors inside finish it.
      dequeue(batch);
      continue;
    }
    ++batch.running;
    if (task_wait_ != nullptr && batch.enqueued_us != 0) {
      const std::uint64_t now = steady_now_us();
      task_wait_->observe(now > batch.enqueued_us ? now - batch.enqueued_us
                                                  : 0);
    }
    batch.enqueued_us = 0;  // only the first worker to join is timed
    lock.unlock();
    std::exception_ptr error = batch.run();
    lock.lock();
    if (error && !batch.error) batch.error = std::move(error);
    if (--batch.running == 0) {
      // Notify after unlocking: once it sees running == 0 the caller may
      // return and destroy the batch, but done_ is the pool's.
      lock.unlock();
      done_.notify_all();
      lock.lock();
    }
  }
}

}  // namespace sc::engine
