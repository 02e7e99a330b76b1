/// \file telemetry.hpp
/// The execution telemetry context: one object bundling the metrics
/// registry (metrics.hpp), the Chrome-trace tracer (trace.hpp), and the
/// stream-health probe configuration (probe.hpp).
///
/// Threading model — zero cost when disabled:
///
///  * Telemetry is OPT-IN and carried by pointer: ExecConfig::telemetry,
///    SessionConfig::telemetry, PlannerConfig::telemetry, and
///    OptConfig::telemetry all default to nullptr.  A null pointer is the
///    disabled state; instrumented code guards each site with one pointer
///    test and otherwise touches nothing — no globals mutate, no atomics
///    bump, no clock reads happen (verified by obs_test's neutrality
///    suite and the bench_obs_overhead gate).
///  * One Telemetry may be shared by any number of concurrent runs,
///    sessions, and pools: every instrument update is atomic, every
///    buffer mutex-guarded.
///
/// Env hook — observability without code changes: env_telemetry() builds
/// a process-lifetime Telemetry from the environment on first call and
/// the backends/sessions fall back to it when their config pointer is
/// null.  `SC_TRACE=<path>` enables tracing and writes the Chrome trace
/// there; `SC_METRICS=<path>` writes the metrics snapshot JSON (use "-"
/// to print the human table to stderr instead); `SC_PROFILE=<path>`
/// enables tracing and writes the collapsed-stack call-tree profile
/// (profiler.hpp; "-" = hot table to stderr); `SC_PROM=<path>` writes the
/// Prometheus text exposition of the metrics snapshot (export.hpp);
/// `SC_TRACE_CAPACITY=<n>`
/// sizes the trace ring.  All files are (re)written by every flush() and
/// once more at process exit, so `SC_TRACE=trace.json
/// ./examples/quickstart` then opening trace.json in Perfetto is the
/// whole quickstart, and `SC_PROFILE=prof.collapsed` then
/// `flamegraph.pl prof.collapsed` is the whole profiling story.  With
/// none of the variables set, env_telemetry() returns nullptr forever and
/// never allocates — the disabled path stays state-free.
///
/// Instrument families by prefix: backend.* (executor runs), engine.*
/// (the session pool's queue, Session::map/for_each batches, and engine
/// runs' chunked accounting), planner.* (planner), opt.* (optimizer
/// passes), fault.* (injection), probe.* (stream-health probes),
/// trace.dropped_events (the trace ring), and analysis.* — the static
/// analyzer (analysis/analyzer.hpp) records an
/// "analysis.analyze" span plus analysis.runs / analysis.pairs_checked /
/// analysis.diagnostics (and errors / warnings / seed_collisions /
/// redundant_fixes) counters, so a traced run shows how much wall time
/// the ExecConfig::analyze gate spends before execution starts.

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace sc::obs {

struct TelemetryConfig {
  /// Record spans/counters into a Tracer (metrics are always on — the
  /// registry is only touched by instrumented sites anyway).
  bool tracing = true;
  /// Trace ring capacity in events (trace.hpp): once full the oldest
  /// events are overwritten and counted as trace.dropped_events, so
  /// always-on tracing holds a constant memory budget.
  std::size_t trace_capacity = kDefaultTraceCapacity;
  /// flush() targets; empty = in-memory only (export via snapshot() /
  /// tracer()->chrome_trace_json()).  metrics_path "-" = human table to
  /// stderr.
  std::string trace_path;
  std::string metrics_path;
  /// Collapsed-stack call-tree profile (profiler.hpp), flamegraph-ready;
  /// "-" = the top-N hot table to stderr instead.
  std::string profile_path;
  /// Prometheus text exposition of the metrics snapshot (export.hpp).
  std::string prometheus_path;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  MetricsRegistry& metrics() { return metrics_; }
  /// nullptr when tracing is disabled — Span/counter sites pass it
  /// straight through.
  Tracer* tracer() { return tracer_.get(); }

  /// Registry snapshot plus the tracer's ring health: when tracing is on,
  /// the `trace.dropped_events` counter reports how many events the
  /// bounded ring overwrote (0 = the trace is complete).
  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot snap = metrics_.snapshot();
    if (tracer_ != nullptr) {
      snap.counters["trace.dropped_events"] = tracer_->dropped_events();
    }
    return snap;
  }

  // ---------------------------------------------------------- probes
  void add_probe(ProbeSpec spec);
  [[nodiscard]] std::vector<ProbeSpec> probe_specs() const;
  void add_probe_report(ProbeReport report);
  /// Reports of every probed run so far, in completion order.
  [[nodiscard]] std::vector<ProbeReport> probe_reports() const;

  /// Writes the configured trace/metrics files (whole-file rewrite, so
  /// it is safe to call after every run).  No-op for empty paths.
  void flush();

  const TelemetryConfig& config() const { return config_; }

  /// Process-wide context from SC_TRACE / SC_METRICS (see file comment);
  /// nullptr when neither is set.  First call wins; the instance lives
  /// until process exit and flushes in an atexit handler.
  static Telemetry* from_env();

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  std::unique_ptr<Tracer> tracer_;
  mutable std::mutex probe_mutex_;
  std::vector<ProbeSpec> probe_specs_;
  std::vector<ProbeReport> probe_reports_;
};

/// Shorthand the instrumentation sites use: the run's own telemetry when
/// set, else the env-configured process context, else nullptr.
inline Telemetry* fallback(Telemetry* telemetry) {
  return telemetry != nullptr ? telemetry : Telemetry::from_env();
}

/// Tracer of a nullable telemetry (nullptr-safe).
inline Tracer* tracer_of(Telemetry* telemetry) {
  return telemetry == nullptr ? nullptr : telemetry->tracer();
}

}  // namespace sc::obs
