/// \file common.hpp
/// Shared pieces of the repository benchmark: workload constants, the
/// programs and configs each workload sends to the library, timing and
/// statistics helpers, the host stamp, and the result printer.
///
/// The benchmark only calls public entry points of the library.  Every
/// input it hands over (programs, ExecConfig seeds, images) is generated
/// here from the workload seed given on the command line.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "img/sc_pipeline.hpp"
#include "opt/pass.hpp"

namespace scbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every mode.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;  ///< trace mode: Chrome trace JSON path
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark process reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context printed beside the metrics (sample counts, sizes).
  std::vector<std::pair<std::string, double>> info;
  unsigned workers_used = 1;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ------------------------------------------------------------- statistics

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

// ------------------------------------------------------------------- host

/// CPUs in this process's affinity mask.
unsigned host_nproc();
/// Pool workers a workload may use: min(4, nproc).
unsigned pool_workers();

// -------------------------------------------------------------- workloads

inline constexpr const char* kWorkloads[] = {"graph-op16", "design-sweep",
                                             "long-stream", "image-tiles"};

// graph-op16 / long-stream: the 31-node bench program at width 16.
inline constexpr unsigned kOp16Width = 16;
inline constexpr std::size_t kOp16Bits = std::size_t{1} << 16;
inline constexpr std::size_t kOp16SeedSet = 16;  ///< cycled base seeds
inline constexpr std::size_t kLongBits = std::size_t{1} << 22;
inline constexpr std::size_t kLongSeedSet = 8;

// design-sweep: fresh random designs per request.
inline constexpr unsigned kSweepWidth = 12;
inline constexpr std::size_t kSweepBits = std::size_t{1} << 12;
inline constexpr std::size_t kSweepDesigns = 64;
inline constexpr std::size_t kSweepSeedsPerDesign = 4;
inline constexpr std::size_t kSweepOps = 8;
/// Requests whose outputs define mean_abs_error (always completed, so the
/// statistic is a function of the seed alone).
inline constexpr std::size_t kSweepErrorRequests = 8;

// image-tiles: one synthetic 80x80 frame per request, three Table IV
// variants; the frame cycles through kImageFrames scenes.
inline constexpr std::size_t kImageSide = 80;
inline constexpr std::size_t kImageBits = 256;
inline constexpr std::size_t kImageFrames = 8;

/// SplitMix64 finalizer, used for every seed the benchmark derives.
std::uint64_t mix(std::uint64_t z);

/// The 31-node bench program: the §IV window program extended with
/// multiply, divide, bipolar multiply, stanh, Bernstein and saturating add
/// (the same program bench/bench_graph_executor.cpp times).
sc::graph::Program op16_program();

/// ExecConfig of graph-op16 (and, with kLongBits, long-stream).
sc::graph::ExecConfig op16_config(std::size_t bits, std::uint32_t seed);

/// The cycled per-request base seeds of graph-op16 / long-stream.
std::vector<std::uint32_t> base_seed_set(std::uint64_t seed,
                                         std::size_t count);

/// One design of a design-sweep request.
struct Design {
  sc::graph::Program program;
  sc::graph::Strategy strategy = sc::graph::Strategy::kManipulation;
  std::uint32_t exec_seeds[kSweepSeedsPerDesign] = {};
};

/// The kSweepDesigns designs of request `request`: random registry programs
/// with tests/graph_fixtures.hpp's operator mix, even designs planned with
/// kManipulation and odd ones with kRegeneration.
std::vector<Design> sweep_designs(std::uint64_t seed, std::size_t request);

sc::graph::PlannerConfig sweep_planner_config();
sc::opt::OptConfig sweep_opt_config();
sc::graph::ExecConfig sweep_config(std::uint32_t seed);

/// One design-sweep job: plan, optimize, then run the kernel backend at
/// each of the design's ExecConfig seeds.
struct DesignRun {
  sc::graph::Program program;   ///< optimized
  sc::graph::ProgramPlan plan;  ///< optimized
  std::vector<sc::graph::ExecutionResult> runs;
  double node_bits = 0.0;
  double busy_s = 0.0;  ///< wall time of the job on its worker
};
DesignRun run_design(const Design& design);

/// Scene `frame` of image-tiles and its pipeline config (2^8-bit streams,
/// 10x10 tiles, width 8).
sc::img::Image image_frame(std::uint64_t seed, std::size_t frame);
sc::img::PipelineConfig image_config(std::uint64_t seed, std::size_t frame);

/// Layer bucket of a registry operator ("window", "gates", "mux_add",
/// "divide", "fsm_fn", "bernstein", "bipolar").
std::string op_class(const std::string& op_name);

/// True when two results carry the same streams (and output values).
bool same_result(const sc::graph::ExecutionResult& a,
                 const sc::graph::ExecutionResult& b);

// ------------------------------------------------------------------ modes

/// End-to-end run of one workload (tracing off); set-up is timed from
/// `process_start`.
Outcome run_workload(const Options& options, Clock::time_point process_start);
/// Set-up of one workload only: returns seconds from process start to the
/// end of the first (cold) request.
double run_setup(const Options& options, Clock::time_point process_start);
/// The traced layer-by-layer run.
Outcome run_trace(const Options& options);

/// Prints the host stamp line and the result JSON line to stdout.
void print_outcome(const Outcome& outcome);

}  // namespace scbench
