/// \file export_test.cpp
/// The Prometheus text exposition (src/obs/export.hpp): name
/// sanitization, the exposition checked by an in-test grammar validator,
/// histogram buckets, label stamping, and the trace ring's drop counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace sc::obs;

/// Minimal Prometheus text-format validator: every line is either a
/// comment or `metric_name{labels} value`, names match the grammar, and
/// every sample of `# TYPE <name> <kind>` follows its comment.
void validate_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream comment(line.substr(7));
      std::string name, kind;
      comment >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    // metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
    std::size_t pos = 0;
    auto name_char = [](char c, bool first) {
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         c == '_' || c == ':';
      return first ? alpha : (alpha || (c >= '0' && c <= '9'));
    };
    ASSERT_TRUE(name_char(line[0], true)) << line;
    while (pos < line.size() && name_char(line[pos], pos == 0)) ++pos;
    // optional label block
    if (pos < line.size() && line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      ASSERT_NE(close, std::string::npos) << line;
      pos = close + 1;
    }
    ASSERT_LT(pos, line.size()) << line;
    ASSERT_EQ(line[pos], ' ') << line;
    // value parses as a double (or +Inf never appears as a value)
    const std::string value = line.substr(pos + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparsable value in: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

MetricsRegistry& populated_registry(Telemetry& telemetry) {
  MetricsRegistry& m = telemetry.metrics();
  m.counter("backend.runs").add(7);
  m.counter("engine.chunks").add(1234);
  m.gauge("engine.pool.queue_depth").set(3.5);
  Histogram& h = m.histogram("engine.pool.task_wait_us");
  for (const std::uint64_t v : {0u, 1u, 3u, 9u, 100u, 5000u}) h.observe(v);
  return m;
}

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("backend.runs"), "sc_backend_runs");
  EXPECT_EQ(prometheus_name("fault.edge.p1.corrupted_bits"),
            "sc_fault_edge_p1_corrupted_bits");
  EXPECT_EQ(prometheus_name("weird-name 2"), "sc_weird_name_2");
}

TEST(Prometheus, ExpositionPassesGrammarValidator) {
  Telemetry telemetry({false});
  populated_registry(telemetry);
  const std::string text = prometheus_text(telemetry.snapshot());
  validate_prometheus(text);
  EXPECT_NE(text.find("# TYPE sc_backend_runs counter"), std::string::npos);
  EXPECT_NE(text.find("sc_backend_runs 7"), std::string::npos);
  EXPECT_NE(text.find("sc_engine_pool_queue_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("sc_engine_pool_queue_depth_max"), std::string::npos);
  EXPECT_NE(text.find("sc_engine_pool_task_wait_us_count 6"),
            std::string::npos);
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndBounded) {
  Telemetry telemetry({false});
  populated_registry(telemetry);
  const std::string text = prometheus_text(telemetry.snapshot());

  // Collect the _bucket samples in order; cumulative counts must be
  // non-decreasing and the +Inf bucket must equal _count.
  std::istringstream in(text);
  std::string line;
  std::uint64_t prev = 0;
  std::uint64_t inf_value = 0;
  std::size_t buckets = 0;
  while (std::getline(in, line)) {
    if (line.find("task_wait_us_bucket") == std::string::npos) continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t value = std::strtoull(line.c_str() + space + 1,
                                              nullptr, 10);
    EXPECT_GE(value, prev) << line;
    prev = value;
    if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = value;
    ++buckets;
  }
  EXPECT_GE(buckets, 3u);
  EXPECT_EQ(inf_value, 6u);
  // The le="0" bucket holds the single zero observation.
  EXPECT_NE(text.find("le=\"0\"} 1"), std::string::npos);
}

TEST(Prometheus, LabelsStampedOnEverySample) {
  Telemetry telemetry({false});
  populated_registry(telemetry);
  const Labels labels = {{"tenant", "acme"}, {"session", "s1"},
                         {"backend", "engine"}};
  const std::string text = prometheus_text(telemetry.snapshot(), labels);
  validate_prometheus(text);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line[0] == '#') continue;
    EXPECT_NE(line.find("tenant=\"acme\""), std::string::npos) << line;
    EXPECT_NE(line.find("session=\"s1\""), std::string::npos) << line;
  }
  // Histogram le coexists with the user labels in one block.
  EXPECT_NE(text.find("backend=\"engine\",le=\"+Inf\""), std::string::npos);
}

/// Exporting a tracing-enabled telemetry carries the ring-health counter.
TEST(Prometheus, TraceDropCounterReachesTheExposition) {
  TelemetryConfig tconfig;
  tconfig.trace_capacity = 4;
  Telemetry telemetry(tconfig);
  for (int i = 0; i < 9; ++i) {
    Span s(telemetry.tracer(), "tick", "test");
  }
  const std::string text = prometheus_text(telemetry.snapshot());
  validate_prometheus(text);
  EXPECT_NE(text.find("sc_trace_dropped_events 5"), std::string::npos);
}

}  // namespace
