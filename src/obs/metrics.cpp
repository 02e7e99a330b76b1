#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace sc::obs {
namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double HistogramSnapshot::mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    cumulative += buckets[k];
    if (static_cast<double>(cumulative) >= target && buckets[k] != 0) {
      if (k == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(k) - 1);
      return lo * 1.5;  // midpoint of [2^(k-1), 2^k)
    }
  }
  return 0.0;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, vm] : gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"value\": " << format_double(vm.first)
        << ", \"max\": " << format_double(vm.second) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"mean\": " << format_double(h.mean())
        << ", \"p50\": " << format_double(h.quantile(0.5))
        << ", \"p99\": " << format_double(h.quantile(0.99))
        << ", \"buckets\": {";
    bool first_bucket = true;
    for (std::size_t k = 0; k < h.buckets.size(); ++k) {
      if (h.buckets[k] == 0) continue;
      out << (first_bucket ? "" : ", ") << "\"" << k << "\": " << h.buckets[k];
      first_bucket = false;
    }
    out << "}}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsSnapshot::to_table() const {
  std::ostringstream out;
  char buf[256];
  if (!counters.empty()) {
    out << "counters\n";
    for (const auto& [name, value] : counters) {
      std::snprintf(buf, sizeof(buf), "  %-44s %20llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << buf;
    }
  }
  if (!gauges.empty()) {
    out << "gauges" << std::string(41, ' ') << "value            max\n";
    for (const auto& [name, vm] : gauges) {
      std::snprintf(buf, sizeof(buf), "  %-44s %12.4g %14.4g\n", name.c_str(),
                    vm.first, vm.second);
      out << buf;
    }
  }
  if (!histograms.empty()) {
    out << "histograms" << std::string(30, ' ')
        << "count         mean          p50          p99\n";
    for (const auto& [name, h] : histograms) {
      std::snprintf(buf, sizeof(buf), "  %-36s %9llu %12.4g %12.4g %12.4g\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    h.mean(), h.quantile(0.5), h.quantile(0.99));
      out << buf;
    }
  }
  return out.str();
}

MetricsRegistry::Slot& MetricsRegistry::slot(const std::string& name,
                                             Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot s;
    s.kind = kind;
    switch (kind) {
      case Kind::kCounter: s.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        s.histogram = std::make_unique<Histogram>();
        break;
    }
    it = slots_.emplace(name, std::move(s)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs: metric '" + name +
                           "' requested as two different kinds");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *slot(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *slot(name, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *slot(name, Kind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : slots_) {
    switch (s.kind) {
      case Kind::kCounter:
        snap.counters.emplace(name, s.counter->value());
        break;
      case Kind::kGauge:
        snap.gauges.emplace(name,
                            std::make_pair(s.gauge->value(), s.gauge->max()));
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.count = s.histogram->count();
        h.sum = s.histogram->sum();
        h.buckets.resize(Histogram::kBuckets);
        for (unsigned k = 0; k < Histogram::kBuckets; ++k) {
          h.buckets[k] = s.histogram->bucket(k);
        }
        snap.histograms.emplace(name, std::move(h));
        break;
      }
    }
  }
  return snap;
}

}  // namespace sc::obs
