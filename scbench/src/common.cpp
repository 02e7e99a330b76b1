#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "common/simd.hpp"
#include "graph_fixtures.hpp"
#include "img/sc_pipeline.hpp"

namespace scbench {

using namespace sc::graph;

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + fraction * (values[high] - values[low]);
}

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<unsigned>(count) : 1u;
}

unsigned pool_workers() { return std::min(4u, host_nproc()); }

std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Program op16_program() {
  std::array<double, 16> pixels{};
  for (std::size_t i = 0; i < 16; ++i) pixels[i] = 0.1 + 0.05 * (i % 10);
  const Program window = sc::img::window_program(pixels);

  GraphBuilder b;
  std::vector<Value> args;
  for (unsigned i = 0; i < 16; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    args.push_back(b.input(name, pixels[i], i % 4));
  }
  const Value edge = b.append(window, args)[0];
  const Value x = b.input("x", 0.62, 4);
  const Value y = b.input("y", 0.35, 4);  // same group: planner must fix
  const Value prod = b.op("multiply", {x, y});
  const Value quot = b.op("divide", {y, x});
  const Value bip = b.op("multiply-bipolar", {prod, b.constant(0.8)});
  const Value nl = b.op("stanh-8", {b.op("scaled-add", {quot, bip})});
  const Value poly = b.op("bernstein-x2-3", {nl, nl, nl});
  b.output(b.op("saturating-add", {poly, edge}), "out");
  b.output(edge, "edge");
  return b.build();
}

ExecConfig op16_config(std::size_t bits, std::uint32_t seed) {
  ExecConfig config;
  config.stream_length = bits;
  config.width = kOp16Width;
  config.seed = seed;
  return config;
}

std::vector<std::uint32_t> base_seed_set(std::uint64_t seed,
                                         std::size_t count) {
  std::vector<std::uint32_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) {
    seeds[i] = static_cast<std::uint32_t>(mix(mix(seed) + i));
  }
  return seeds;
}

std::vector<Design> sweep_designs(std::uint64_t seed, std::size_t request) {
  std::vector<Design> designs(kSweepDesigns);
  for (std::size_t d = 0; d < kSweepDesigns; ++d) {
    const std::uint64_t key = mix(mix(seed) ^ (request * kSweepDesigns + d));
    std::mt19937_64 gen(key);
    designs[d].program = fixtures::random_program(gen, kSweepOps);
    designs[d].strategy =
        d % 2 == 0 ? Strategy::kManipulation : Strategy::kRegeneration;
    for (std::size_t k = 0; k < kSweepSeedsPerDesign; ++k) {
      designs[d].exec_seeds[k] = static_cast<std::uint32_t>(mix(key + k + 1));
    }
  }
  return designs;
}

PlannerConfig sweep_planner_config() {
  PlannerConfig config;
  config.width = kSweepWidth;
  return config;
}

sc::opt::OptConfig sweep_opt_config() {
  sc::opt::OptConfig config;
  config.planner = sweep_planner_config();
  config.width = kSweepWidth;
  return config;
}

ExecConfig sweep_config(std::uint32_t seed) {
  ExecConfig config;
  config.stream_length = kSweepBits;
  config.width = kSweepWidth;
  config.seed = seed;
  return config;
}

sc::img::Image image_frame(std::uint64_t seed, std::size_t frame) {
  return sc::img::Image::synthetic_scene(kImageSide, kImageSide,
                                         mix(mix(seed) + frame));
}

sc::img::PipelineConfig image_config(std::uint64_t seed, std::size_t frame) {
  sc::img::PipelineConfig config;
  config.stream_length = kImageBits;
  config.seed = static_cast<std::uint32_t>(mix(mix(seed + 1) + frame));
  return config;
}

std::string op_class(const std::string& op_name) {
  if (op_name == "gaussian-blur-3x3" || op_name == "roberts-cross") {
    return "window";
  }
  if (op_name == "multiply" || op_name == "saturating-add" ||
      op_name == "subtract" || op_name == "max" || op_name == "min") {
    return "gates";
  }
  if (op_name == "scaled-add" || op_name == "toggle-add") return "mux_add";
  if (op_name == "divide") return "divide";
  if (op_name == "stanh-8" || op_name == "sexp-8-1") return "fsm_fn";
  if (op_name.rfind("bernstein", 0) == 0) return "bernstein";
  if (op_name.find("bipolar") != std::string::npos) return "bipolar";
  throw std::invalid_argument("scbench: no layer bucket for operator " +
                              op_name);
}

bool same_result(const ExecutionResult& a, const ExecutionResult& b) {
  return a.streams == b.streams && a.values == b.values &&
         a.output_nodes == b.output_nodes;
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("scbench: non-finite metric value");
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string host_json(unsigned workers_used) {
  std::string out = "{\"nproc\": " + std::to_string(host_nproc());
  out += ", \"workers_used\": " + std::to_string(workers_used);
  out += ", \"simd_tier\": \"";
  out += sc::simd::tier_name(sc::simd::active_tier());
  out += "\", \"compiler\": \"";
#if defined(__clang__)
  out += "clang " __clang_version__;
#elif defined(__GNUC__)
  out += "gcc " __VERSION__;
#else
  out += "unknown";
#endif
  out += "\", \"optimized\": ";
#if defined(__OPTIMIZE__)
  out += "true";
#else
  out += "false";
#endif
  out += ", \"ndebug\": ";
#if defined(NDEBUG)
  out += "true";
#else
  out += "false";
#endif
  out += "}";
  return out;
}

}  // namespace

void print_outcome(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    if (i != 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < outcome.info.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + outcome.info[i].first +
           "\": " + json_number(outcome.info[i].second);
  }
  out += "}, \"host\": " + host_json(outcome.workers_used) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace scbench
