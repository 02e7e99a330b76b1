#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace sc::obs {
namespace {

std::string us(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Minimal scoped spinlock over the slot latch.  Contention is limited to
/// a snapshot copying the exact slot a wrapping writer claims, so the
/// spin is bounded by one event copy.
class SlotLock {
 public:
  explicit SlotLock(std::atomic_flag& latch) : latch_(latch) {
    while (latch_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SlotLock() { latch_.clear(std::memory_order_release); }
  SlotLock(const SlotLock&) = delete;
  SlotLock& operator=(const SlotLock&) = delete;

 private:
  std::atomic_flag& latch_;
};

}  // namespace

// ------------------------------------------------------------ TraceBuffer

TraceBuffer::TraceBuffer(std::size_t capacity) {
  const std::size_t n = round_up_pow2(capacity < 2 ? 2 : capacity);
  slots_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  mask_ = n - 1;
}

void TraceBuffer::push(TraceEvent event) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = *slots_[static_cast<std::size_t>(ticket) & mask_];
  SlotLock lock(slot.latch);
  // A writer delayed a full lap behind a faster one must not clobber the
  // newer event it finds in its slot; its own (older) event is the drop.
  if (slot.ticket <= ticket) {
    slot.ticket = ticket + 1;
    slot.event = std::move(event);
  }
}

std::size_t TraceBuffer::size() const {
  const std::uint64_t pushed = head_.load(std::memory_order_relaxed);
  return pushed < slots_.size() ? static_cast<std::size_t>(pushed)
                                : slots_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  const std::uint64_t pushed = head_.load(std::memory_order_relaxed);
  return pushed > slots_.size() ? pushed - slots_.size() : 0;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<std::pair<std::uint64_t, TraceEvent>> held;
  held.reserve(slots_.size());
  for (const auto& slot : slots_) {
    SlotLock lock(slot->latch);
    if (slot->ticket != 0) held.emplace_back(slot->ticket, slot->event);
  }
  std::sort(held.begin(), held.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<TraceEvent> out;
  out.reserve(held.size());
  for (auto& [ticket, event] : held) out.push_back(std::move(event));
  return out;
}

// ----------------------------------------------------------------- Tracer

void Span::arg(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  arg(key, std::string(buf));
}

std::uint32_t Tracer::tid() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(tid_mutex_);
  const auto it = tids_.find(self);
  if (it != tids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tids_.size());
  tids_.emplace(self, id);
  return id;
}

void Tracer::record(TraceEvent event) { buffer_.push(std::move(event)); }

void Tracer::counter(const std::string& name, double value) {
  TraceEvent event;
  event.name = name;
  event.category = "counter";
  event.phase = 'C';
  event.ts_us = now_us();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  event.args.emplace_back("value", buf);
  event.tid = tid();
  record(std::move(event));
}

std::size_t Tracer::event_count() const { return buffer_.size(); }

std::uint64_t Tracer::dropped_events() const { return buffer_.dropped(); }

std::vector<TraceEvent> Tracer::events() const { return buffer_.snapshot(); }

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> sorted = events();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TraceEvent& e = sorted[i];
    out << "  {\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
        << json_escape(e.category) << "\", \"ph\": \"" << e.phase
        << "\", \"pid\": 1, \"tid\": " << e.tid << ", \"ts\": "
        << us(e.ts_us);
    if (e.phase == 'X') out << ", \"dur\": " << us(e.dur_us);
    if (!e.args.empty()) {
      out << ", \"args\": {";
      for (std::size_t k = 0; k < e.args.size(); ++k) {
        out << (k == 0 ? "" : ", ") << "\"" << json_escape(e.args[k].first)
            << "\": " << e.args[k].second;
      }
      out << "}";
    }
    out << "}" << (i + 1 < sorted.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return out.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << chrome_trace_json();
}

}  // namespace sc::obs
