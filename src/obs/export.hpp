/// \file export.hpp
/// Prometheus text exposition of a MetricsSnapshot: the scrape surface of
/// the telemetry subsystem.
///
/// Instrument names are sanitized to the Prometheus grammar
/// ("engine.pool.queue_depth" -> "sc_engine_pool_queue_depth"), counters
/// export as counters, gauges as a value gauge plus a "_max" high-water
/// gauge, and the log2 histograms as native Prometheus histograms with
/// exact inclusive bucket bounds (bucket k holds values in [2^(k-1), 2^k),
/// so its upper bound is le="2^k - 1") plus _sum/_count.
///
/// Labels: an ordered (key, value) label set stamped on each sample —
/// `tenant`, `session`, and `backend` are the conventional keys; nothing
/// restricts the set.
///
/// Telemetry::flush writes this exposition to SC_PROM /
/// TelemetryConfig::prometheus_path.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace sc::obs {

/// Ordered label set stamped on every exported sample.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Sanitizes an instrument name to the Prometheus metric-name grammar
/// ([a-zA-Z_:][a-zA-Z0-9_:]*) with the library's "sc_" prefix.
[[nodiscard]] std::string prometheus_name(const std::string& name);

/// Full text exposition of a snapshot (# TYPE comments + samples).
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot,
                                          const Labels& labels = {});

}  // namespace sc::obs
