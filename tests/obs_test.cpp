/// Telemetry subsystem tests (src/obs/): metrics registry semantics,
/// trace span recording and Chrome-JSON shape, stream-health probe math
/// against the library's own scc(), telemetry neutrality on every
/// backend, and the ISSUE acceptance scenario — a 16-input fan-out
/// program under faults + optimizer on a 2-worker session, asserting the
/// snapshot carries queue-depth, buffer-occupancy, backpressure-stall,
/// bits-processed, and fault-injection counters and the trace shows
/// planner/opt/backend spans across more than one thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "bitstream/correlation.hpp"
#include "common/json.hpp"
#include "engine/session.hpp"
#include "fault/fault.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rng/lfsr.hpp"

namespace sc::obs {
namespace {

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.counter");
  counter.inc();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  Gauge& gauge = registry.gauge("test.gauge");
  gauge.set(3.5);
  gauge.set(9.0);
  gauge.set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 9.0);

  Histogram& histogram = registry.histogram("test.histogram");
  histogram.observe(0);    // bucket 0
  histogram.observe(1);    // bucket 1
  histogram.observe(3);    // bucket 2: [2, 4)
  histogram.observe(100);  // bucket 7: [64, 128)
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 104u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(2), 1u);
  EXPECT_EQ(histogram.bucket(7), 1u);
}

TEST(Metrics, RegistryReturnsStableInstrumentsAndRejectsKindConflicts) {
  MetricsRegistry registry;
  Counter& a = registry.counter("same.name.twice");
  Counter& b = registry.counter("same.name.twice");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("same.name.twice"), std::logic_error);
  EXPECT_THROW(registry.histogram("same.name.twice"), std::logic_error);
}

TEST(Metrics, SnapshotExportsJsonAndTable) {
  MetricsRegistry registry;
  registry.counter("events.total").add(7);
  registry.gauge("queue.depth").set(3.0);
  registry.histogram("wait.us").observe(12);

  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("events.total"), 7u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("queue.depth").first, 3.0);
  EXPECT_EQ(snapshot.histograms.at("wait.us").count, 1u);

  const std::string json = snapshot.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events.total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // 12 lands in log2 bucket 4, [8, 16): the only nonzero bucket.
  EXPECT_NE(json.find("\"buckets\": {\"4\": 1}"), std::string::npos);

  const std::string table = snapshot.to_table();
  EXPECT_NE(table.find("events.total"), std::string::npos);
  EXPECT_NE(table.find("queue.depth"), std::string::npos);
}

TEST(Metrics, HistogramQuantileResolvesToCoveringBucketMidpoint) {
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.observe(1000);  // bucket 10
  HistogramSnapshot snap;
  snap.count = histogram.count();
  snap.sum = histogram.sum();
  for (unsigned k = 0; k < Histogram::kBuckets; ++k) {
    snap.buckets.push_back(histogram.bucket(k));
  }
  EXPECT_DOUBLE_EQ(snap.mean(), 1000.0);
  // All mass in [512, 1024): every quantile is that bucket's midpoint.
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 768.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 768.0);
}

// ------------------------------------------------------------------- trace

TEST(Trace, SpansRecordCompleteEventsWithArgs) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer", "test");
    outer.arg("n", std::uint64_t{13});
    outer.arg_str("kind", "demo");
    Span inner(&tracer, "inner", "test");
  }
  ASSERT_EQ(tracer.event_count(), 2u);
  const std::vector<TraceEvent> events = tracer.events();
  // Destructor order: inner completes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_GE(events[1].dur_us, events[0].dur_us);  // outer contains inner
  ASSERT_EQ(events[1].args.size(), 2u);
  EXPECT_EQ(events[1].args[0].first, "n");
  EXPECT_EQ(events[1].args[0].second, "13");
  EXPECT_EQ(events[1].args[1].second, "\"demo\"");
}

TEST(Trace, NullTracerSpansAreNoOps) {
  Span span(nullptr, "ignored", "test");
  span.arg("k", std::uint64_t{1});
  // Nothing to assert beyond "does not crash": the span holds no tracer.
}

TEST(Trace, DefaultRingAbsorbsTypicalRunsWithoutDrops) {
  Tracer tracer;
  EXPECT_EQ(tracer.capacity(), kDefaultTraceCapacity);
  for (int i = 0; i < 1000; ++i) {
    Span s(&tracer, "tick", "test");
  }
  EXPECT_EQ(tracer.event_count(), 1000u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  // A saturated ring keeps the newest window and counts what it shed.
  Tracer tiny(16);
  for (int i = 0; i < 100; ++i) {
    Span s(&tiny, "tick", "test");
  }
  EXPECT_EQ(tiny.event_count(), 16u);
  EXPECT_EQ(tiny.dropped_events(), 84u);
  EXPECT_NE(tiny.chrome_trace_json().find("\"traceEvents\""),
            std::string::npos);
}

TEST(Trace, ChromeJsonIsWellFormedAndTimeSorted) {
  Tracer tracer;
  { Span a(&tracer, "first", "test"); }
  { Span b(&tracer, "second", "test"); }
  tracer.counter("series", 42.0);

  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"first\""), std::string::npos);
  // Events serialize sorted by timestamp: "first" appears before "second".
  EXPECT_LT(json.find("\"first\""), json.find("\"second\""));
}

TEST(Json, EscapeNamesQuoteBackslashNewlineTabAndCrAndHexesOtherControls) {
  EXPECT_EQ(json_escape("plain text 0-9 ~ {}"), "plain text 0-9 ~ {}");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(json_escape(std::string("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  // Bytes from 0x20 up, UTF-8 included, pass through.
  EXPECT_EQ(json_escape("\x7f \xc3\xa9"), "\x7f \xc3\xa9");
  EXPECT_EQ(json_escape(""), "");
}

// ------------------------------------------------------------------ probes

Bitstream lfsr_stream(std::uint32_t seed, std::size_t n) {
  rng::Lfsr lfsr(8, seed);
  Bitstream bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bits.push_back((lfsr.next() & 64) != 0);
  return bits;
}

TEST(Probe, WindowedSccMatchesTheLibrarysOwnScc) {
  const std::size_t n = 512, window = 128;
  const Bitstream x = lfsr_stream(17, n);
  const Bitstream y = lfsr_stream(91, n);

  StreamProbe probe({"x", "y", window}, /*pair=*/true, nullptr);
  probe.feed(x, &y, 0, n);
  const ProbeReport report = probe.finish();

  ASSERT_EQ(report.windows.size(), n / window);
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    Bitstream wx, wy;
    for (std::size_t i = 0; i < window; ++i) {
      wx.push_back(x.get(w * window + i));
      wy.push_back(y.get(w * window + i));
    }
    EXPECT_DOUBLE_EQ(report.windows[w].value_x, wx.value());
    EXPECT_DOUBLE_EQ(report.windows[w].value_y, wy.value());
    EXPECT_DOUBLE_EQ(report.windows[w].scc, scc(wx, wy));
  }
  EXPECT_DOUBLE_EQ(report.running_value_x, x.value());
  EXPECT_DOUBLE_EQ(report.running_scc, scc(x, y));
}

TEST(Probe, ChunkedFeedEqualsWholeStreamFeed) {
  const std::size_t n = 700;  // odd shape: windows straddle chunks
  const Bitstream x = lfsr_stream(33, n);
  const Bitstream y = lfsr_stream(57, n);

  StreamProbe whole({"x", "y", 256}, true, nullptr);
  whole.feed(x, &y, 0, n);
  const ProbeReport want = whole.finish();

  // Feed in uneven chunks, as the engine backend would.
  StreamProbe chunked({"x", "y", 256}, true, nullptr);
  const std::size_t cuts[] = {96, 160, 13, 256, 175};
  std::size_t offset = 0;
  for (std::size_t take : cuts) {
    Bitstream cx, cy;
    for (std::size_t i = 0; i < take; ++i) {
      cx.push_back(x.get(offset + i));
      cy.push_back(y.get(offset + i));
    }
    chunked.feed(cx, &cy, offset, take);
    offset += take;
  }
  ASSERT_EQ(offset, n);
  const ProbeReport got = chunked.finish();

  ASSERT_EQ(got.windows.size(), want.windows.size());
  for (std::size_t w = 0; w < want.windows.size(); ++w) {
    EXPECT_EQ(got.windows[w].begin, want.windows[w].begin);
    EXPECT_EQ(got.windows[w].bits, want.windows[w].bits);
    EXPECT_DOUBLE_EQ(got.windows[w].scc, want.windows[w].scc);
    EXPECT_DOUBLE_EQ(got.windows[w].value_x, want.windows[w].value_x);
  }
  EXPECT_DOUBLE_EQ(got.running_scc, want.running_scc);
}

TEST(Probe, SingleEdgeProbeReportsValuesOnly) {
  const Bitstream x = lfsr_stream(5, 256);
  StreamProbe probe({"x", "", 64}, /*pair=*/false, nullptr);
  probe.feed(x, nullptr, 0, 256);
  const ProbeReport report = probe.finish();
  ASSERT_EQ(report.windows.size(), 4u);
  EXPECT_FALSE(report.windows[0].scc_defined);
  EXPECT_DOUBLE_EQ(report.running_value_x, x.value());
}

// ------------------------------------------------------- telemetry context

TEST(Telemetry, EnvFallbackIsNullWhenUnset) {
  ::unsetenv("SC_TRACE");
  ::unsetenv("SC_METRICS");
  EXPECT_EQ(Telemetry::from_env(), nullptr);
  EXPECT_EQ(fallback(nullptr), nullptr);
  Telemetry telemetry;
  EXPECT_EQ(fallback(&telemetry), &telemetry);
}

TEST(Telemetry, TracingToggleControlsTheTracer) {
  TelemetryConfig config;
  config.tracing = false;
  Telemetry metrics_only(config);
  EXPECT_EQ(metrics_only.tracer(), nullptr);
  EXPECT_EQ(tracer_of(&metrics_only), nullptr);

  Telemetry tracing;
  EXPECT_NE(tracing.tracer(), nullptr);
}

// ------------------------------------------------- neutrality + acceptance

/// 16 grouped inputs reduced by a multiply tree: level 0 has 16 nodes, so
/// the chunked engine backend fans chunk advancement across the pool.
graph::Program fanout_tree_program() {
  using namespace sc::graph;
  GraphBuilder b;
  std::vector<Value> layer;
  for (unsigned i = 0; i < 16; ++i) {
    layer.push_back(
        b.input("p" + std::to_string(i), 0.15 + 0.05 * (i % 10), i % 4));
  }
  while (layer.size() > 1) {
    std::vector<Value> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(b.op("scaled-add", {layer[i], layer[i + 1]}));
    }
    layer = std::move(next);
  }
  b.output(layer[0], "out");
  return b.build();
}

TEST(Neutrality, AllBackendsBitIdenticalWithTelemetryAttached) {
  using namespace sc::graph;
  const Program program = fanout_tree_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  ExecConfig bare;
  bare.stream_length = 777;
  bare.width = 8;

  Telemetry telemetry;
  telemetry.add_probe({"p0", "out", 128});
  ExecConfig observed = bare;
  observed.telemetry = &telemetry;

  engine::Session bare_session({2, 256, 0x5eed});
  engine::Session observed_session({2, 256, 0x5eed, &telemetry});

  const struct {
    const char* label;
    std::unique_ptr<ExecutorBackend> bare;
    std::unique_ptr<ExecutorBackend> observed;
  } backends[] = {
      {"reference", make_backend(BackendKind::kReference),
       make_backend(BackendKind::kReference)},
      {"kernel", make_backend(BackendKind::kKernel),
       make_backend(BackendKind::kKernel)},
      {"engine", make_engine_backend(bare_session),
       make_engine_backend(observed_session)},
  };
  for (const auto& entry : backends) {
    const ExecutionResult want = entry.bare->run(program, plan, bare);
    const ExecutionResult got = entry.observed->run(program, plan, observed);
    ASSERT_EQ(want.streams.size(), got.streams.size());
    for (std::size_t s = 0; s < want.streams.size(); ++s) {
      EXPECT_EQ(want.streams[s], got.streams[s])
          << entry.label << " stream " << s
          << " changed under observation";
    }
  }
  // The observed runs populated the registry and the probes.
  EXPECT_GE(telemetry.snapshot().counters.at("backend.runs"), 3u);
  EXPECT_FALSE(telemetry.probe_reports().empty());
}

TEST(Metrics, RngDrawsCountEveryGeneratorOncePerCycle) {
  // Worked by hand: two inputs share one RNG group (one group trace
  // generator) and feed a multiply, whose uncorrelated requirement the
  // planner meets with one decorrelator (two aux generators).  Multiply
  // itself draws nothing, so every backend makes 3 draws per cycle.
  using namespace sc::graph;
  GraphBuilder b;
  const Value x = b.input("x", 0.6, 0);
  const Value y = b.input("y", 0.3, 0);
  b.output(b.op("multiply", {x, y}), "xy");
  const Program program = b.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  ASSERT_EQ(plan.fixes.size(), 1u);
  ASSERT_EQ(plan.fixes[0].fix, FixKind::kDecorrelator);

  engine::Session session({1, 256, 0x5eed});
  const std::unique_ptr<ExecutorBackend> backends[] = {
      make_backend(BackendKind::kReference), make_backend(BackendKind::kKernel),
      make_engine_backend(session)};
  for (const auto& backend : backends) {
    Telemetry telemetry;
    ExecConfig config;
    config.stream_length = 1000;
    config.telemetry = &telemetry;
    backend->run(program, plan, config);
    EXPECT_EQ(telemetry.snapshot().counters.at("backend.rng_draws"), 3000u)
        << backend->name();
  }
}

TEST(Metrics, EngineRunsOfRegenerationPlansAreRecordedAsEngineRuns) {
  // A regeneration fix counts its whole operand before it re-encodes, so
  // the engine runs such a plan as one stream-long chunk.  It is still an
  // engine run: its span, its counters and the session's chunked-run stats
  // say so, and nothing is charged to the kernel backend.
  using namespace sc::graph;
  GraphBuilder b;
  const Value x = b.input("x", 0.6, 0);
  const Value y = b.input("y", 0.3, 0);
  b.output(b.op("multiply", {x, y}), "xy");
  const Program program = b.build();
  const ProgramPlan plan = plan_program(program, Strategy::kRegeneration);
  ASSERT_TRUE(plan.has_regeneration());

  Telemetry telemetry;
  engine::Session session({2, 256, 0x5eed, &telemetry});
  ExecConfig config;
  config.stream_length = 1000;
  config.telemetry = &telemetry;
  make_engine_backend(session)->run(program, plan, config);

  std::set<std::string> names;
  for (const TraceEvent& event : telemetry.tracer()->events()) {
    names.insert(event.name);
  }
  EXPECT_NE(names.count("backend.run.engine"), 0u);
  EXPECT_NE(names.count("engine.chunk"), 0u);
  EXPECT_EQ(names.count("backend.run.kernel"), 0u);

  const MetricsSnapshot snapshot = telemetry.snapshot();
  const auto counter = [&snapshot](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(counter("backend.engine.runs"), 1u);
  EXPECT_EQ(counter("backend.kernel.runs"), 0u);
  EXPECT_EQ(counter("engine.chunked_runs"), 1u);
  EXPECT_EQ(counter("engine.chunks"), 1u);
  EXPECT_EQ(counter("engine.stream_bits"), 1000u);
}

// An engine run's accounting is recorded once, by the executor, into the
// run's registry and (when different) the session's; the level fan-out is
// not a Session batch.

/// x, y -> multiply: level 0 holds two nodes, so a pooled run fans it out.
graph::Program product_program() {
  graph::GraphBuilder b;
  const graph::Value x = b.input("x", 0.6, 0);
  const graph::Value y = b.input("y", 0.3, 1);
  b.output(b.op("multiply", {x, y}), "xy");
  return b.build();
}

std::uint64_t counter_of(const MetricsSnapshot& snapshot,
                         const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? std::uint64_t{0} : it->second;
}

TEST(EngineAccounting, PooledRunRecordsOneChunkedRunAndNoBatch) {
  using namespace sc::graph;
  const Program program = product_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  Telemetry telemetry;
  engine::Session session({2, 4096, 0x5eed, &telemetry});
  ExecConfig config;
  config.stream_length = 1000;
  config.telemetry = &telemetry;
  make_engine_backend(session)->run(program, plan, config);

  const MetricsSnapshot snapshot = telemetry.snapshot();
  EXPECT_EQ(counter_of(snapshot, "engine.chunked_runs"), 1u);
  EXPECT_EQ(counter_of(snapshot, "engine.chunks"), 1u);
  EXPECT_EQ(counter_of(snapshot, "engine.stream_bits"), 1000u);
  EXPECT_EQ(snapshot.counters.count("engine.batches"), 0u);
  EXPECT_EQ(snapshot.counters.count("engine.jobs"), 0u);
}

TEST(EngineAccounting, PeakBufferIsOneChunkOfAtMostTheStreamPerNode) {
  using namespace sc::graph;
  const Program program = product_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  ASSERT_EQ(program.node_count(), 3u);

  for (const auto& [bits, peak] :
       {std::pair<std::size_t, double>{1000, 3.0 * 1000},
        std::pair<std::size_t, double>{10000, 3.0 * 4096}}) {
    Telemetry telemetry;
    engine::Session session({1, 4096, 0x5eed, &telemetry});
    ExecConfig config;
    config.stream_length = bits;
    make_engine_backend(session)->run(program, plan, config);
    EXPECT_EQ(telemetry.snapshot().gauges.at("engine.buffer.peak_bits").first,
              peak)
        << bits << "-bit run";
  }
}

TEST(EngineAccounting, SeparateRunAndSessionRegistriesCountOnceEach) {
  using namespace sc::graph;
  const Program program = product_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  Telemetry run_telemetry;
  Telemetry session_telemetry;
  engine::Session session({2, 256, 0x5eed, &session_telemetry});
  ExecConfig config;
  config.stream_length = 1000;
  config.telemetry = &run_telemetry;
  make_engine_backend(session)->run(program, plan, config);

  for (Telemetry* telemetry : {&run_telemetry, &session_telemetry}) {
    const MetricsSnapshot snapshot = telemetry->snapshot();
    EXPECT_EQ(counter_of(snapshot, "engine.chunked_runs"), 1u);
    EXPECT_EQ(counter_of(snapshot, "engine.chunks"), 4u);
    EXPECT_EQ(counter_of(snapshot, "engine.stream_bits"), 1000u);
    EXPECT_EQ(snapshot.gauges.at("engine.buffer.peak_bits").first,
              3.0 * 256);
  }
}

TEST(Neutrality, ProbeObservationIsIdenticalAcrossBackends) {
  using namespace sc::graph;
  const Program program = fanout_tree_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  const auto probe_run = [&](std::unique_ptr<ExecutorBackend> backend,
                             Telemetry& telemetry) {
    ExecConfig config;
    config.stream_length = 1024;
    config.width = 8;
    config.telemetry = &telemetry;
    backend->run(program, plan, config);
    return telemetry.probe_reports();
  };

  Telemetry ref_telemetry, eng_telemetry;
  ref_telemetry.add_probe({"p3", "out", 256});
  eng_telemetry.add_probe({"p3", "out", 256});

  engine::Session session({2, 256, 0x5eed, &eng_telemetry});
  const std::vector<ProbeReport> ref_reports =
      probe_run(make_backend(BackendKind::kReference), ref_telemetry);
  const std::vector<ProbeReport> eng_reports =
      probe_run(make_engine_backend(session), eng_telemetry);

  // The whole-stream tap and the live chunked tap see the same windows.
  ASSERT_EQ(ref_reports.size(), 1u);
  ASSERT_EQ(eng_reports.size(), 1u);
  ASSERT_EQ(ref_reports[0].windows.size(), eng_reports[0].windows.size());
  for (std::size_t w = 0; w < ref_reports[0].windows.size(); ++w) {
    EXPECT_DOUBLE_EQ(ref_reports[0].windows[w].scc,
                     eng_reports[0].windows[w].scc);
    EXPECT_DOUBLE_EQ(ref_reports[0].windows[w].value_x,
                     eng_reports[0].windows[w].value_x);
  }
}

TEST(Acceptance, FanOutRunEmitsFullMetricsAndMultiThreadTrace) {
  using namespace sc::graph;
  Telemetry telemetry;
  telemetry.add_probe({"p0", "out", 512});

  const Program program = fanout_tree_program();
  PlannerConfig planner_config;
  planner_config.telemetry = &telemetry;
  const ProgramPlan plan =
      plan_program(program, Strategy::kManipulation, planner_config);

  fault::FaultPlan faults;
  faults.seed = 0xFA17;
  faults.edges.push_back({"p1", fault::ErrorKind::kBitFlip, 0.05, 16, 0});

  engine::Session session({2, 512, 0x5eed, &telemetry});
  ExecConfig config;
  config.stream_length = 4096;
  config.width = 8;
  config.optimize = true;
  config.fault_plan = &faults;
  config.telemetry = &telemetry;

  make_engine_backend(session)->run(program, plan, config);

  const MetricsSnapshot snapshot = telemetry.snapshot();
  // The ISSUE's named signals, all from one run:
  EXPECT_NE(snapshot.gauges.count("engine.pool.queue_depth"), 0u);
  EXPECT_NE(snapshot.gauges.count("engine.buffer.peak_bits"), 0u);
  EXPECT_GT(snapshot.gauges.at("engine.buffer.peak_bits").second, 0.0);
  EXPECT_NE(snapshot.counters.count("engine.pool.backpressure_stalls"), 0u);
  EXPECT_NE(snapshot.histograms.count("engine.pool.task_wait_us"), 0u);
  EXPECT_GT(snapshot.counters.at("backend.bits_processed"), 0u);
  EXPECT_GT(snapshot.counters.at("backend.rng_draws"), 0u);
  EXPECT_GT(snapshot.counters.at("fault.corrupted_bits"), 0u);
  EXPECT_GT(snapshot.counters.at("fault.edge.p1.corrupted_bits"), 0u);
  EXPECT_GE(snapshot.counters.at("engine.chunks"), 8u);
  EXPECT_EQ(snapshot.counters.at("engine.stream_bits"), 4096u);
  EXPECT_GE(snapshot.counters.at("planner.plans"), 1u);
  EXPECT_GE(snapshot.counters.at("opt.passes"), 1u);

  // The trace: planner, optimizer, and backend spans, and per-chunk
  // activity.
  ASSERT_NE(telemetry.tracer(), nullptr);
  std::set<std::string> names;
  for (const TraceEvent& event : telemetry.tracer()->events()) {
    names.insert(event.name);
  }
  EXPECT_NE(names.count("planner.plan_program"), 0u);
  EXPECT_NE(names.count("opt.optimize"), 0u);
  EXPECT_NE(names.count("backend.run.engine"), 0u);
  EXPECT_NE(names.count("engine.chunk"), 0u);

  // And more than one thread on the timeline.  The caller is one of the
  // session's executors, so which level of the run a worker joins depends
  // on timing; a two-index fan-out whose index 0 waits until index 1 has
  // started runs on two executors however they are scheduled.
  std::atomic<bool> second_started{false};
  session.for_each(2, [&](std::size_t i) {
    Span span(telemetry.tracer(), "test.fan_out_index", "test");
    if (i == 1) {
      second_started = true;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!second_started && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  std::set<std::uint32_t> tids;
  for (const TraceEvent& event : telemetry.tracer()->events()) {
    if (event.name == "test.fan_out_index") tids.insert(event.tid);
  }
  EXPECT_EQ(tids.size(), 2u) << "the fan-out's indices should land on two "
                                "executors";

  // And the serialized trace is Perfetto-shaped.
  const std::string json = telemetry.tracer()->chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("backend.run.engine"), std::string::npos);
}

}  // namespace
}  // namespace sc::obs
