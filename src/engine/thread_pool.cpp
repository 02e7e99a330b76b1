#include "engine/thread_pool.hpp"

#include <algorithm>
#include <chrono>
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

/// The pool whose worker_loop this thread runs (nullptr off the pools).
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t pending = 0;   // blocks not yet finished; guarded by mutex_
  std::exception_ptr error;  // guarded by mutex_
};

unsigned ThreadPool::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = resolve_threads(threads);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
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

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (current_pool == this) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // A few blocks per worker, so a slow block does not serialize the tail.
  const std::size_t target_blocks = std::min(count, std::size_t{4} * size());
  const std::size_t block = (count + target_blocks - 1) / target_blocks;

  Batch batch;
  batch.body = &body;
  batch.pending = (count + block - 1) / block;
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t now = task_wait_ != nullptr ? steady_now_us() : 0;
  // Whatever is queued now belongs to other calls, and every block of
  // this one waits behind it.
  if (stalls_ != nullptr && !queue_.empty()) stalls_->add(batch.pending);
  for (std::size_t lo = 0; lo < count; lo += block) {
    queue_.push({&batch, lo, std::min(count, lo + block), now});
  }
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<double>(queue_.size()));
  }
  lock.unlock();
  cv_.notify_all();

  lock.lock();
  done_.wait(lock, [&batch] { return batch.pending == 0; });
  lock.unlock();
  if (batch.error) std::rethrow_exception(batch.error);
}

std::exception_ptr ThreadPool::run_block(const Block& block) {
  try {
    for (std::size_t i = block.lo; i < block.hi; ++i) (*block.batch->body)(i);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  current_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;
    const Block block = queue_.front();
    queue_.pop();
    if (queue_depth_ != nullptr) {
      queue_depth_->set(static_cast<double>(queue_.size()));
    }
    if (task_wait_ != nullptr && block.enqueued_us != 0) {
      const std::uint64_t now = steady_now_us();
      task_wait_->observe(now > block.enqueued_us ? now - block.enqueued_us
                                                  : 0);
    }
    lock.unlock();
    std::exception_ptr error = run_block(block);
    lock.lock();
    Batch& batch = *block.batch;
    if (error && !batch.error) batch.error = std::move(error);
    --batch.pending;
    // Notify after unlocking: once it sees pending == 0 the caller may
    // return and destroy the batch, but done_ is the pool's.  The caller
    // is woken after every block, not only the last: on a 4-vCPU VM a
    // caller that slept through a whole 64-job fan-out left one of the
    // four workers without a block in about half the calls, 10-30%
    // slower per call.
    lock.unlock();
    done_.notify_all();
    lock.lock();
  }
}

}  // namespace sc::engine
