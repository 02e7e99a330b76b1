/// \file workloads.cpp
/// The four end-to-end workloads.  Each one is a closed loop with a single
/// client: the next request starts when the previous one has finished.
/// Only the library call of a request is timed; making the inputs and
/// checking the outputs happen outside the timed window.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "engine/session.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "opt/optimize.hpp"

namespace scbench {

using namespace sc::graph;

DesignRun run_design(const Design& design) {
  const Clock::time_point start = Clock::now();
  const ProgramPlan plan =
      plan_program(design.program, design.strategy, sweep_planner_config());
  sc::opt::OptResult optimized =
      sc::opt::optimize(design.program, plan, sweep_opt_config());
  DesignRun run;
  run.program = std::move(optimized.program);
  run.plan = std::move(optimized.plan);
  const std::unique_ptr<ExecutorBackend> backend =
      make_backend(BackendKind::kKernel);
  for (const std::uint32_t seed : design.exec_seeds) {
    run.runs.push_back(backend->run(run.program, run.plan, sweep_config(seed)));
    run.node_bits +=
        static_cast<double>(kSweepBits * run.program.node_count());
  }
  run.busy_s = seconds_since(start);
  return run;
}

namespace {

/// High-water resident memory of this process image.  VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so it
/// would report the launching process's footprint when that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("scbench: no VmHWM in /proc/self/status");
}

/// Responses of a workload whose requests repeat a small set of inputs:
/// the first response per input is kept, every later one must equal it,
/// and the kept ones are compared against the oracle after the timed loop.
template <typename Response>
class RepeatChecker {
 public:
  explicit RepeatChecker(std::size_t inputs)
      : first_(inputs), requests_(inputs, 0), mismatches_(inputs, 0) {}

  void check(std::size_t input, Response response) {
    if (requests_[input]++ == 0) {
      first_[input] = std::move(response);
    } else if (!(response == first_[input])) {
      ++mismatches_[input];
    }
  }

  const Response& first(std::size_t input) const { return first_[input]; }

  /// Requests that differ from the oracle: every request of an input whose
  /// kept response is wrong, else the ones that differed from it.
  template <typename Oracle>
  std::uint64_t failed(Oracle matches_oracle) const {
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < first_.size(); ++k) {
      if (requests_[k] == 0) continue;
      failed += matches_oracle(k, first_[k]) ? mismatches_[k] : requests_[k];
    }
    return failed;
  }

 private:
  std::vector<Response> first_;
  std::vector<std::uint64_t> requests_;
  std::vector<std::uint64_t> mismatches_;
};

/// Comparable view of a graph result (streams, output values, node ids).
struct GraphResponse {
  ExecutionResult result;
  bool operator==(const GraphResponse& other) const {
    return same_result(result, other.result);
  }
};

// ----------------------------------------------- graph-op16, long-stream

/// The 31-node program, planned once, run at `bits` per request with the
/// base seed cycling through `seed_count` values: graph-op16 on the kernel
/// backend with no pool, long-stream on the engine backend bound to a
/// min(4, nproc)-worker session with keep_streams = false.
class CycledProgram {
 public:
  CycledProgram(const Options& options, std::size_t bits,
                std::size_t seed_count, bool engine)
      : program_(op16_program()),
        plan_(plan_program(program_, Strategy::kManipulation)),
        bits_(bits),
        engine_(engine),
        session_(engine ? std::make_unique<sc::engine::Session>(
                              sc::engine::SessionConfig{pool_workers()})
                        : nullptr),
        backend_(engine ? make_engine_backend(*session_)
                        : make_backend(BackendKind::kKernel)),
        seeds_(base_seed_set(options.seed, seed_count)),
        checker_(seed_count) {}

  [[nodiscard]] unsigned workers() const {
    return session_ ? session_->threads() : 1;
  }
  [[nodiscard]] std::size_t min_requests() const { return seeds_.size(); }
  void prepare(std::size_t) {}

  double request(std::size_t i) {
    last_ = backend_->run(program_, plan_, config(i));
    return static_cast<double>(bits_ * program_.node_count());
  }

  void check(std::size_t i) {
    checker_.check(i % seeds_.size(), GraphResponse{std::move(last_)});
  }

  /// Kept responses against the reference backend: every stream bit for
  /// bit, or — without kept streams — the exact output values (ones
  /// counts over the whole stream).
  void finish(Outcome& outcome) {
    const std::unique_ptr<ExecutorBackend> reference =
        make_backend(BackendKind::kReference);
    outcome.failed += checker_.failed(
        [&](std::size_t k, const GraphResponse& kept) {
          return same_result(reference->run(program_, plan_, config(k)),
                             kept.result);
        });
    for (std::size_t k = 0; k < seeds_.size(); ++k) {
      mean_abs_error += checker_.first(k).result.mean_abs_error /
                        static_cast<double>(seeds_.size());
    }
  }

  double mean_abs_error = 0.0;

 private:
  [[nodiscard]] ExecConfig config(std::size_t i) const {
    ExecConfig config = op16_config(bits_, seeds_[i % seeds_.size()]);
    config.keep_streams = !engine_;
    return config;
  }

  Program program_;
  ProgramPlan plan_;
  std::size_t bits_;
  bool engine_;
  std::unique_ptr<sc::engine::Session> session_;
  std::unique_ptr<ExecutorBackend> backend_;
  std::vector<std::uint32_t> seeds_;
  RepeatChecker<GraphResponse> checker_;
  ExecutionResult last_;
};

// ---------------------------------------------------------- design-sweep

/// 64 fresh random designs per request, fanned out over the session pool;
/// each is planned, optimized and run at four ExecConfig seeds.
class DesignSweep {
 public:
  explicit DesignSweep(const Options& options)
      : seed_(options.seed),
        session_(sc::engine::SessionConfig{pool_workers()}) {}

  [[nodiscard]] unsigned workers() const { return session_.threads(); }
  [[nodiscard]] std::size_t min_requests() const {
    return kSweepErrorRequests;
  }

  void prepare(std::size_t i) { designs_ = sweep_designs(seed_, i); }

  double request(std::size_t) {
    runs_ = session_.map<DesignRun>(
        kSweepDesigns, [this](std::size_t d) { return run_design(designs_[d]); });
    double bits = 0.0;
    for (const DesignRun& run : runs_) bits += run.node_bits;
    return bits;
  }

  /// Every run of every job against the reference backend, bit for bit.
  void check(std::size_t i) {
    const std::vector<int> mismatched = session_.map<int>(
        kSweepDesigns, [this](std::size_t d) {
          const std::unique_ptr<ExecutorBackend> reference =
              make_backend(BackendKind::kReference);
          const DesignRun& run = runs_[d];
          for (std::size_t k = 0; k < kSweepSeedsPerDesign; ++k) {
            const ExecutionResult oracle = reference->run(
                run.program, run.plan, sweep_config(designs_[d].exec_seeds[k]));
            if (!same_result(oracle, run.runs[k])) return 1;
          }
          return 0;
        });
    if (std::find(mismatched.begin(), mismatched.end(), 1) !=
        mismatched.end()) {
      ++failed_;
    }
    if (i < kSweepErrorRequests) {
      for (const DesignRun& run : runs_) {
        for (const ExecutionResult& result : run.runs) {
          error_sum_ += result.mean_abs_error;
          ++error_count_;
        }
      }
    }
  }

  void finish(Outcome& outcome) {
    outcome.failed += failed_;
    mean_abs_error = error_sum_ / static_cast<double>(error_count_);
  }

  double mean_abs_error = 0.0;

 private:
  std::uint64_t seed_;
  sc::engine::Session session_;
  std::vector<Design> designs_;
  std::vector<DesignRun> runs_;
  std::uint64_t failed_ = 0;
  double error_sum_ = 0.0;
  std::size_t error_count_ = 0;
};

// ----------------------------------------------------------- image-tiles

constexpr std::array<sc::img::Variant, 3> kVariants = {
    sc::img::Variant::kNoManipulation, sc::img::Variant::kRegeneration,
    sc::img::Variant::kSynchronizer};

struct Frames {
  std::array<std::vector<double>, 3> pixels;
  double error = 0.0;  ///< mean over the variants of |SC - float| per pixel
  bool operator==(const Frames& other) const { return pixels == other.pixels; }
};

/// One 80x80 synthetic frame per request through run_pipeline_tiled for
/// all three Table IV variants on a min(4, nproc)-worker session; the frame
/// cycles through kImageFrames scenes.
class ImageTiles {
 public:
  explicit ImageTiles(const Options& options)
      : session_(sc::engine::SessionConfig{pool_workers()}),
        checker_(kImageFrames) {
    for (std::size_t f = 0; f < kImageFrames; ++f) {
      images_.push_back(image_frame(options.seed, f));
      configs_.push_back(image_config(options.seed, f));
    }
  }

  [[nodiscard]] unsigned workers() const { return session_.threads(); }
  [[nodiscard]] std::size_t min_requests() const { return kImageFrames; }
  void prepare(std::size_t) {}

  double request(std::size_t i) {
    const std::size_t f = i % kImageFrames;
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      last_[v] = sc::img::run_pipeline_tiled(images_[f], kVariants[v],
                                             configs_[f], session_);
    }
    return static_cast<double>(images_[f].pixel_count() * kImageBits *
                               kVariants.size());
  }

  void check(std::size_t i) {
    Frames frames;
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      frames.pixels[v] = last_[v].output.pixels();
      frames.error += last_[v].error / static_cast<double>(kVariants.size());
    }
    checker_.check(i % kImageFrames, std::move(frames));
  }

  /// The frames must equal a 1-worker session's, pixel for pixel.
  void finish(Outcome& outcome) {
    sc::engine::Session serial(sc::engine::SessionConfig{1});
    outcome.failed += checker_.failed([&](std::size_t f, const Frames& kept) {
      for (std::size_t v = 0; v < kVariants.size(); ++v) {
        const sc::img::PipelineResult oracle = sc::img::run_pipeline_tiled(
            images_[f], kVariants[v], configs_[f], serial);
        if (oracle.output.pixels() != kept.pixels[v]) return false;
      }
      return true;
    });
    for (std::size_t f = 0; f < kImageFrames; ++f) {
      mean_abs_error += checker_.first(f).error / kImageFrames;
    }
  }

  double mean_abs_error = 0.0;

 private:
  std::vector<sc::img::Image> images_;
  std::vector<sc::img::PipelineConfig> configs_;
  sc::engine::Session session_;
  RepeatChecker<Frames> checker_;
  std::array<sc::img::PipelineResult, 3> last_;
};

// ----------------------------------------------------------- closed loop

template <typename Workload>
Outcome drive(Workload& workload, const Options& options,
              Clock::time_point process_start) {
  Outcome outcome;
  outcome.workers_used = workload.workers();

  // The cold request closes set-up; it is checked but not timed.
  workload.prepare(0);
  workload.request(0);
  const double setup_s = seconds_since(process_start);
  workload.check(0);

  std::vector<double> latencies;
  double node_bits = 0.0;
  const Clock::time_point loop_start = Clock::now();
  std::size_t i = 1;
  while (seconds_since(loop_start) < options.seconds ||
         i < workload.min_requests()) {
    workload.prepare(i);
    const Clock::time_point start = Clock::now();
    node_bits += workload.request(i);
    latencies.push_back(seconds_since(start));
    workload.check(i);
    ++i;
  }
  const double rss = peak_rss_mib();
  workload.finish(outcome);
  outcome.attempted = i;

  double busy = 0.0;
  for (const double latency : latencies) busy += latency;
  outcome.add("requests_per_s", static_cast<double>(latencies.size()) / busy,
              "1/s");
  outcome.add("node_mbit_per_s", node_bits / busy / 1e6, "Mbit/s");
  outcome.add("request_ms_p50", quantile(latencies, 0.5) * 1e3, "ms");
  outcome.add("request_ms_p90", quantile(latencies, 0.9) * 1e3, "ms");
  outcome.add("setup_s", setup_s, "s");
  outcome.add("peak_rss_mib", rss, "MiB");
  outcome.add("mean_abs_error", workload.mean_abs_error, "1");
  outcome.info.emplace_back("latency_samples",
                            static_cast<double>(latencies.size()));
  outcome.correct = outcome.failed == 0;
  return outcome;
}

/// Builds the named workload and hands it to fn.
template <typename Fn>
auto with_workload(const Options& options, Fn fn) {
  if (options.workload == "graph-op16") {
    CycledProgram workload(options, kOp16Bits, kOp16SeedSet, false);
    return fn(workload);
  }
  if (options.workload == "long-stream") {
    CycledProgram workload(options, kLongBits, kLongSeedSet, true);
    return fn(workload);
  }
  if (options.workload == "design-sweep") {
    DesignSweep workload(options);
    return fn(workload);
  }
  if (options.workload == "image-tiles") {
    ImageTiles workload(options);
    return fn(workload);
  }
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace

Outcome run_workload(const Options& options, Clock::time_point process_start) {
  return with_workload(options, [&](auto& workload) {
    return drive(workload, options, process_start);
  });
}

double run_setup(const Options& options, Clock::time_point process_start) {
  return with_workload(options, [&](auto& workload) {
    workload.prepare(0);
    workload.request(0);
    return seconds_since(process_start);
  });
}

}  // namespace scbench
