/// \file trace.cpp
/// The traced run: per-layer metrics, measured from outside the library.
///
/// One request of each graph workload is replayed through the layers'
/// public functions in the order the backend calls them — rng::Lfsr group
/// traces and SNG encoding, core fix transforms through kernel::apply (or
/// kernel::ChunkedPairApplier on the chunked path), convert::regenerate*,
/// OperatorDef::make_evaluator -> begin -> process — with an obs::Span
/// around every call.  The replay must reproduce the backend's streams bit
/// for bit, and its layer times are set against the same workload's
/// 1-worker request time: what they do not cover is the backend's own
/// orchestration (graph.backend.residual).  Engine fan-out, the image
/// pipeline, LFSR cold start and the cost of library telemetry are timed
/// at their public entry points.  Every metric name starts with the
/// workload it was measured on.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "bitstream/encoding.hpp"
#include "common.hpp"
#include "convert/regenerator.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/synchronizer.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/session.hpp"
#include "graph/seeds.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "kernel/apply.hpp"
#include "obs/telemetry.hpp"
#include "opt/optimize.hpp"
#include "rng/lfsr.hpp"

namespace scbench {
namespace {

using namespace sc::graph;
using sc::Bitstream;
using seeds::derive_seed32;
using seeds::Role;

/// Σ layer times should land within kSumRatioTarget of the 1-worker
/// request time (a warning otherwise); beyond kSumRatioLimit the
/// decomposition is broken and the traced run fails.  On a 4-CPU host
/// shared with other jobs the median ratio usually lands within 5%, but a
/// burst of load can push one run past 10%.
constexpr double kSumRatioTarget = 0.10;
constexpr double kSumRatioLimit = 0.25;

/// Seconds and simulated bits per layer, for one replay.
struct LayerTally {
  std::map<std::string, double> seconds;
  std::map<std::string, double> bits;
};

/// A span around one call into a layer: recorded into the trace and added
/// to the tally.
class LayerSpan {
 public:
  LayerSpan(sc::obs::Tracer* tracer, LayerTally& tally, std::string layer,
            const char* workload, double bits)
      : span_(tracer, layer, workload),
        tally_(&tally),
        layer_(std::move(layer)),
        start_(Clock::now()) {
    tally_->bits[layer_] += bits;
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  ~LayerSpan() { tally_->seconds[layer_] += seconds_since(start_); }

 private:
  sc::obs::Span span_;
  LayerTally* tally_;
  std::string layer_;
  Clock::time_point start_;
};

const char* fix_layer(FixKind kind) {
  switch (kind) {
    case FixKind::kSynchronizer:
      return "kernel.synchronizer";
    case FixKind::kDesynchronizer:
      return "kernel.desynchronizer";
    case FixKind::kDecorrelator:
    case FixKind::kDecorrelatorChain:
      return "kernel.decorrelator";
    default:
      return "convert.regenerate";
  }
}

std::string op_layer(const Program& program, NodeId id) {
  return "graph.op." + op_class(program.def_of(id).name);
}

// The seed lanes, fix circuits and regeneration steps below are the ones
// src/graph/backend.cpp derives; the replay is only valid while they agree,
// which the bit-for-bit comparison checks on every traced run.

unsigned fix_lane(const PairFix& fix) {
  return fix.operand_a * kMaxArity + fix.operand_b;
}

std::unique_ptr<sc::core::PairTransform> make_fix_transform(
    FixKind kind, const ExecConfig& config, NodeId node, unsigned lane) {
  switch (kind) {
    case FixKind::kSynchronizer:
      return std::make_unique<sc::core::Synchronizer>(
          sc::core::Synchronizer::Config{config.sync_depth, false, 0});
    case FixKind::kDesynchronizer:
      return std::make_unique<sc::core::Desynchronizer>(
          sc::core::Desynchronizer::Config{config.sync_depth, false});
    case FixKind::kDecorrelator:
      return std::make_unique<sc::core::Decorrelator>(
          config.shuffle_depth,
          std::make_unique<sc::rng::Lfsr>(
              config.width,
              derive_seed32(config.seed, node, Role::kFixAuxA, lane)),
          std::make_unique<sc::rng::Lfsr>(
              config.width,
              derive_seed32(config.seed, node, Role::kFixAuxB, lane), 3));
    case FixKind::kDecorrelatorChain:
      return std::make_unique<sc::core::DecorrelatorChainLink>(
          config.shuffle_depth,
          std::make_unique<sc::rng::Lfsr>(
              config.width,
              derive_seed32(config.seed, node, Role::kFixAuxA, lane)));
    default:
      throw std::logic_error("scbench: not an in-stream fix");
  }
}

void regenerate(FixKind kind, Bitstream& a, Bitstream& b,
                const ExecConfig& config, NodeId node, unsigned lane) {
  const std::uint32_t seed_a =
      derive_seed32(config.seed, node, Role::kFixAuxA, lane);
  if (kind == FixKind::kRegenerateShared) {
    sc::rng::Lfsr source(config.width, seed_a);
    const std::vector<Bitstream> bus =
        sc::convert::regenerate_bus_correlated({a, b}, source);
    a = bus[0];
    b = bus[1];
  } else if (kind == FixKind::kRegenerateDistinct) {
    sc::rng::Lfsr source_a(config.width, seed_a);
    sc::rng::Lfsr source_b(
        config.width, derive_seed32(config.seed, node, Role::kFixAuxB, lane));
    a = sc::convert::regenerate(a, source_a);
    b = sc::convert::regenerate(b, source_b);
  } else {
    // Complementary: one shared trace, the second comparator inverted.
    sc::rng::Lfsr source(config.width, seed_a);
    const std::size_t n = a.size();
    const auto mask = static_cast<std::uint32_t>(source.range() - 1);
    const std::uint64_t level_a =
        n == 0 ? 0 : (a.count_ones() * source.range() + n / 2) / n;
    const std::uint64_t level_b =
        n == 0 ? 0 : (b.count_ones() * source.range() + n / 2) / n;
    Bitstream out_a(n);
    Bitstream out_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = source.next();
      if (r < level_a) out_a.set(i, true);
      if ((mask - r) < level_b) out_b.set(i, true);
    }
    a = std::move(out_a);
    b = std::move(out_b);
  }
}

OpContext context_for(const Program& program, NodeId id,
                      const ExecConfig& config) {
  OpContext ctx;
  ctx.stream_length = config.stream_length;
  ctx.width = config.width;
  ctx.node = program.node(id).seed_tag;
  ctx.base_seed = config.seed;
  return ctx;
}

std::vector<unsigned> fixed_slots_of(const std::vector<const PairFix*>& fixes) {
  std::vector<unsigned> slots;
  for (const PairFix* fix : fixes) {
    for (const unsigned slot : {fix->operand_a, fix->operand_b}) {
      if (std::find(slots.begin(), slots.end(), slot) == slots.end()) {
        slots.push_back(slot);
      }
    }
  }
  return slots;
}

std::size_t slot_index(const std::vector<unsigned>& slots, unsigned slot) {
  return static_cast<std::size_t>(
      std::find(slots.begin(), slots.end(), slot) - slots.begin());
}

/// Whole-stream replay of the kernel backend (run_whole, kernel path).
std::vector<Bitstream> replay_whole(const Program& program,
                                    const ProgramPlan& plan,
                                    const ExecConfig& config,
                                    sc::obs::Tracer* tracer, LayerTally& tally,
                                    const char* workload) {
  const std::size_t n = config.stream_length;
  const std::uint64_t natural = std::uint64_t{1} << config.width;
  std::map<unsigned, std::vector<std::uint32_t>> traces;
  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    if (node.kind == ProgramNode::Kind::kOp) continue;
    if (traces.count(node.rng_group) != 0) continue;
    LayerSpan span(tracer, tally, "rng.group_trace", workload, 0.0);
    sc::rng::Lfsr source(config.width, derive_seed32(config.seed, node.rng_group,
                                                     Role::kGroupTrace));
    std::vector<std::uint32_t> trace(n);
    for (std::size_t i = 0; i < n; ++i) trace[i] = source.next();
    traces.emplace(node.rng_group, std::move(trace));
  }

  std::vector<Bitstream> streams(program.node_count());
  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    if (node.kind != ProgramNode::Kind::kOp) {
      LayerSpan span(tracer, tally, "rng.group_trace", workload,
                     static_cast<double>(n));
      const std::uint64_t level = sc::unipolar_level64(node.value, natural);
      const std::vector<std::uint32_t>& trace = traces.at(node.rng_group);
      Bitstream stream(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (trace[i] < level) stream.set(i, true);
      }
      streams[id] = std::move(stream);
      continue;
    }

    std::vector<const Bitstream*> operands(node.operands.size());
    for (std::size_t k = 0; k < node.operands.size(); ++k) {
      operands[k] = &streams[node.operands[k]];
    }
    const std::vector<const PairFix*> fixes = plan.fixes_for(id);
    const std::vector<unsigned> slots = fixed_slots_of(fixes);
    std::vector<Bitstream> copies(slots.size());
    for (std::size_t c = 0; c < slots.size(); ++c) {
      copies[c] = streams[node.operands[slots[c]]];
      operands[slots[c]] = &copies[c];
    }
    for (const PairFix* fix : fixes) {
      Bitstream& a = copies[slot_index(slots, fix->operand_a)];
      Bitstream& b = copies[slot_index(slots, fix->operand_b)];
      LayerSpan span(tracer, tally, fix_layer(fix->fix), workload,
                     static_cast<double>(n));
      if (is_regenerating(fix->fix)) {
        regenerate(fix->fix, a, b, config, node.seed_tag, fix_lane(*fix));
        continue;
      }
      const std::unique_ptr<sc::core::PairTransform> transform =
          make_fix_transform(fix->fix, config, node.seed_tag, fix_lane(*fix));
      const sc::StreamPair out = sc::kernel::apply(*transform, a, b);
      a = out.x;
      b = out.y;
    }

    LayerSpan span(tracer, tally, op_layer(program, id), workload,
                   static_cast<double>(n));
    const std::unique_ptr<OpEvaluator> evaluator =
        program.def_of(id).make_evaluator(context_for(program, id, config));
    evaluator->begin(n);
    Bitstream out(n);
    evaluator->process(
        sc::span<const Bitstream* const>(operands.data(), operands.size()),
        out);
    streams[id] = std::move(out);
  }
  return streams;
}

/// Chunked replay of the engine backend on a 1-worker session
/// (run_chunked: node state built once, then chunk by chunk, level by
/// level).  Collects every node's stream into `streams` when non-null.
std::size_t replay_chunked(const Program& program, const ProgramPlan& plan,
                           const ExecConfig& config, std::size_t chunk_bits,
                           sc::obs::Tracer* tracer, LayerTally& tally,
                           const char* workload,
                           std::vector<Bitstream>* streams) {
  struct NodeState {
    std::unique_ptr<sc::engine::SngChunkSource> source;
    std::vector<std::unique_ptr<sc::core::PairTransform>> transforms;
    std::vector<std::unique_ptr<sc::kernel::ChunkedPairApplier>> appliers;
    std::vector<const PairFix*> fixes;
    std::unique_ptr<OpEvaluator> evaluator;
    std::vector<unsigned> slots;
    std::vector<Bitstream> scratch;
    std::vector<const Bitstream*> operand_chunks;
    Bitstream chunk;
    std::string layer;
  };
  const std::size_t n = config.stream_length;
  const std::uint64_t natural = std::uint64_t{1} << config.width;
  chunk_bits = std::max<std::size_t>(64, chunk_bits & ~std::size_t{63});

  std::vector<NodeState> states(program.node_count());
  std::vector<std::vector<NodeId>> levels;
  std::vector<unsigned> level_of(program.node_count(), 0);
  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    NodeState& state = states[id];
    if (node.kind != ProgramNode::Kind::kOp) {
      LayerSpan span(tracer, tally, "rng.group_trace", workload, 0.0);
      state.source = std::make_unique<sc::engine::SngChunkSource>(
          std::make_unique<sc::rng::Lfsr>(
              config.width, derive_seed32(config.seed, node.rng_group,
                                          Role::kGroupTrace)),
          sc::unipolar_level64(node.value, natural), n);
    } else {
      for (NodeId operand : node.operands) {
        level_of[id] = std::max(level_of[id], level_of[operand] + 1);
      }
      state.fixes = plan.fixes_for(id);
      for (const PairFix* fix : state.fixes) {
        LayerSpan span(tracer, tally, fix_layer(fix->fix), workload, 0.0);
        state.transforms.push_back(
            make_fix_transform(fix->fix, config, node.seed_tag, fix_lane(*fix)));
        state.appliers.push_back(
            std::make_unique<sc::kernel::ChunkedPairApplier>(
                *state.transforms.back()));
        state.appliers.back()->begin(n);
      }
      state.layer = op_layer(program, id);
      LayerSpan span(tracer, tally, state.layer, workload, 0.0);
      state.evaluator =
          program.def_of(id).make_evaluator(context_for(program, id, config));
      state.evaluator->begin(n);
      state.slots = fixed_slots_of(state.fixes);
      state.scratch.resize(state.slots.size());
      state.operand_chunks.resize(node.operands.size());
    }
    if (level_of[id] >= levels.size()) levels.resize(level_of[id] + 1);
    levels[level_of[id]].push_back(id);
  }
  if (streams != nullptr) streams->assign(program.node_count(), Bitstream(n));

  std::size_t chunks = 0;
  for (std::size_t offset = 0; offset < n; offset += chunk_bits, ++chunks) {
    const std::size_t take = std::min(chunk_bits, n - offset);
    for (const std::vector<NodeId>& level : levels) {
      for (const NodeId id : level) {
        const ProgramNode& node = program.node(id);
        NodeState& state = states[id];
        if (node.kind != ProgramNode::Kind::kOp) {
          LayerSpan span(tracer, tally, "rng.group_trace", workload,
                         static_cast<double>(take));
          state.source->next_chunk(state.chunk, take);
        } else {
          for (std::size_t k = 0; k < node.operands.size(); ++k) {
            state.operand_chunks[k] = &states[node.operands[k]].chunk;
          }
          for (std::size_t c = 0; c < state.slots.size(); ++c) {
            state.scratch[c] = states[node.operands[state.slots[c]]].chunk;
            state.operand_chunks[state.slots[c]] = &state.scratch[c];
          }
          for (std::size_t f = 0; f < state.appliers.size(); ++f) {
            const PairFix& fix = *state.fixes[f];
            LayerSpan span(tracer, tally, fix_layer(fix.fix), workload,
                           static_cast<double>(take));
            state.appliers[f]->advance(
                state.scratch[slot_index(state.slots, fix.operand_a)],
                state.scratch[slot_index(state.slots, fix.operand_b)]);
          }
          state.chunk.assign_zero(take);
          LayerSpan span(tracer, tally, state.layer, workload,
                         static_cast<double>(take));
          state.evaluator->process(
              sc::span<const Bitstream* const>(state.operand_chunks.data(),
                                               state.operand_chunks.size()),
              state.chunk);
        }
        if (streams != nullptr) {
          const std::vector<Bitstream::Word>& words = state.chunk.words();
          std::copy(words.begin(), words.end(),
                    (*streams)[id].word_data() + offset / 64);
        }
      }
    }
  }
  for (NodeState& state : states) {
    for (auto& applier : state.appliers) applier->finish();
  }
  return chunks;
}

// ------------------------------------------------------------- reporting

/// Layer keys reported per graph workload.
const std::vector<std::string>& rng_kernel_layers() {
  static const std::vector<std::string> layers = {
      "rng.group_trace", "kernel.synchronizer", "kernel.desynchronizer",
      "kernel.decorrelator"};
  return layers;
}

const std::vector<std::string>& op_layers(bool with_window) {
  static const std::vector<std::string> all = {
      "graph.op.window", "graph.op.gates",     "graph.op.mux_add",
      "graph.op.divide", "graph.op.fsm_fn",    "graph.op.bernstein",
      "graph.op.bipolar"};
  static const std::vector<std::string> no_window(all.begin() + 1, all.end());
  return with_window ? all : no_window;
}

/// Runs every step once per round, in order, after one untimed warm-up
/// round (round 0), and returns each step's times of the timed rounds.
/// Interleaving keeps the slow speed drifts of a shared host out of the
/// ratios between steps of one round.
std::vector<std::vector<double>> interleave(
    std::size_t rounds,
    const std::vector<std::function<void(std::size_t round)>>& steps) {
  std::vector<std::vector<double>> times(steps.size());
  for (std::size_t round = 0; round <= rounds; ++round) {
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const Clock::time_point start = Clock::now();
      steps[s](round);
      if (round > 0) times[s].push_back(seconds_since(start));
    }
  }
  return times;
}

/// Per-layer medians over the timed replays, set against the 1-worker
/// request timed in the same rounds.
class Decomposition {
 public:
  explicit Decomposition(std::string workload)
      : workload_(std::move(workload)) {}

  void add(LayerTally tally) { tallies_.push_back(std::move(tally)); }

  [[nodiscard]] double layer_s(const std::string& layer) const {
    std::vector<double> values;
    for (const LayerTally& tally : tallies_) values.push_back(seconds(tally, layer));
    return median(values);
  }

  void report_layer(Outcome& outcome, const std::string& layer,
                    bool with_rate) const {
    const double time_s = layer_s(layer);
    const auto bits = tallies_.front().bits.find(layer);
    outcome.add(workload_ + "." + layer + "_ms", time_s * 1e3, "ms");
    if (with_rate) {
      outcome.add(workload_ + "." + layer + "_mbit_per_s",
                  bits == tallies_.front().bits.end() || time_s <= 0.0
                      ? 0.0
                      : bits->second / time_s / 1e6,
                  "Mbit/s");
    }
  }

  /// Residual, sum ratio and tracing overhead, round by round; returns the
  /// sum ratio.
  double report_fidelity(Outcome& outcome, const std::vector<double>& requests,
                       const std::vector<double>& replays) const {
    std::vector<double> residual;
    std::vector<double> share;
    std::vector<double> ratio;
    std::vector<double> overhead;
    for (std::size_t i = 0; i < tallies_.size(); ++i) {
      double sum = 0.0;
      for (const auto& entry : tallies_[i].seconds) sum += entry.second;
      residual.push_back(requests[i] - sum);
      share.push_back((requests[i] - sum) / requests[i]);
      ratio.push_back(sum / requests[i]);
      overhead.push_back((replays[i] / requests[i] - 1.0) * 100.0);
    }
    const double sum_ratio = median(ratio);
    outcome.add(workload_ + ".graph.backend.residual_ms",
                median(residual) * 1e3, "ms");
    outcome.add(workload_ + ".graph.backend.residual_share", median(share),
                "ratio");
    outcome.add(workload_ + ".layers.sum_ratio", sum_ratio, "ratio");
    outcome.add(workload_ + ".trace.overhead_pct", median(overhead), "%");
    outcome.info.emplace_back(workload_ + ".request_1w_ms",
                              median(requests) * 1e3);
    std::fprintf(stderr,
                 "scbench trace: %s: layer times are %.3f of the %.3f ms "
                 "1-worker request\n",
                 workload_.c_str(), sum_ratio, median(requests) * 1e3);
    return sum_ratio;
  }

 private:
  static double seconds(const LayerTally& tally, const std::string& layer) {
    const auto it = tally.seconds.find(layer);
    return it == tally.seconds.end() ? 0.0 : it->second;
  }

  std::string workload_;
  std::vector<LayerTally> tallies_;
};

/// Median over rounds of serial_i / (workers x pooled_i).
double scaling_efficiency(const std::vector<double>& serial,
                          const std::vector<double>& pooled,
                          unsigned workers) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ratios.push_back(serial[i] / (workers * pooled[i]));
  }
  return median(ratios);
}

struct TraceRun {
  const Options& options;
  sc::obs::Tracer tracer{std::size_t{1} << 17};
  Outcome outcome{};
  unsigned workers = pool_workers();

  void fail(const std::string& what) {
    std::fprintf(stderr, "scbench trace: FAILED: %s\n", what.c_str());
    outcome.correct = false;
  }

  /// Compares replayed streams with the backend's, counting one attempt.
  void check_streams(const std::string& what,
                     const std::vector<Bitstream>& replayed,
                     const std::vector<Bitstream>& backend) {
    ++outcome.attempted;
    if (replayed != backend) {
      ++outcome.failed;
      fail(what + ": replayed streams differ from the backend's");
    }
  }

  void check_ratio(const Decomposition& decomposition, const char* workload,
                   const std::vector<double>& requests,
                   const std::vector<double>& replays) {
    const double off =
        std::abs(decomposition.report_fidelity(outcome, requests, replays) -
                 1.0);
    if (off > kSumRatioLimit) {
      fail(std::string(workload) +
           ": layer times do not add up to the request time");
    } else if (off > kSumRatioTarget) {
      std::fprintf(stderr,
                   "scbench trace: WARNING: %s: layer times are off the "
                   "request time by more than %.0f%%\n",
                   workload, kSumRatioTarget * 100.0);
    }
  }

  void graph_op16();
  void design_sweep();
  void long_stream();
  void image_tiles();
};

void TraceRun::graph_op16() {
  const char* const workload = "graph-op16";
  const Program program = op16_program();
  const ExecConfig config =
      op16_config(kOp16Bits, base_seed_set(options.seed, 1)[0]);
  const std::unique_ptr<ExecutorBackend> backend =
      make_backend(BackendKind::kKernel);
  ProgramPlan plan;
  ExecutionResult result;
  LayerTally plan_tally;
  Decomposition decomposition(workload);
  const std::vector<std::vector<double>> times = interleave(
      9, {[&](std::size_t) {
            LayerSpan span(&tracer, plan_tally, "graph.plan", workload, 0.0);
            plan = plan_program(program, Strategy::kManipulation);
          },
          [&](std::size_t) { result = backend->run(program, plan, config); },
          [&](std::size_t round) {
            LayerTally tally;
            const std::vector<Bitstream> streams =
                replay_whole(program, plan, config, &tracer, tally, workload);
            if (round == 0) check_streams(workload, streams, result.streams);
            if (round > 0) decomposition.add(std::move(tally));
          }});

  // Library telemetry on vs off, in interleaved pairs.
  sc::obs::Telemetry telemetry;
  ExecConfig traced = config;
  traced.telemetry = &telemetry;
  const std::vector<std::vector<double>> telemetry_times = interleave(
      25, {[&](std::size_t) { result = backend->run(program, plan, config); },
           [&](std::size_t) { result = backend->run(program, plan, traced); }});
  std::vector<double> ratios;
  for (std::size_t i = 0; i < telemetry_times[0].size(); ++i) {
    ratios.push_back(telemetry_times[1][i] / telemetry_times[0][i]);
  }

  for (const std::string& layer : rng_kernel_layers()) {
    decomposition.report_layer(outcome, layer, true);
  }
  for (const std::string& layer : op_layers(true)) {
    decomposition.report_layer(outcome, layer, true);
  }
  outcome.add("graph-op16.graph.plan_ms", median(times[0]) * 1e3, "ms");
  outcome.add("graph-op16.graph.plan.inserted_units",
              static_cast<double>(plan.inserted_units), "count");
  check_ratio(decomposition, workload, times[1], times[2]);
  outcome.add("graph-op16.obs.telemetry_on_overhead_pct",
              (median(ratios) - 1.0) * 100.0, "%");
}

void TraceRun::design_sweep() {
  const char* const workload = "design-sweep";
  const std::vector<Design> designs = sweep_designs(options.seed, 0);
  const auto request = [&designs](sc::engine::Session& session) {
    return session.map<DesignRun>(kSweepDesigns, [&designs](std::size_t d) {
      return run_design(designs[d]);
    });
  };
  sc::engine::Session serial(sc::engine::SessionConfig{1});
  sc::engine::Session pooled(sc::engine::SessionConfig{workers});
  std::vector<DesignRun> runs;
  std::vector<double> idle;
  std::size_t inserted = 0;
  Decomposition decomposition(workload);

  const auto replay = [&](std::size_t round) {
    LayerTally tally;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      ProgramPlan plan;
      {
        LayerSpan span(&tracer, tally, "graph.plan", workload, 0.0);
        plan = plan_program(designs[d].program, designs[d].strategy,
                            sweep_planner_config());
      }
      if (round == 0) inserted += plan.inserted_units;
      sc::opt::OptResult optimized;
      {
        LayerSpan span(&tracer, tally, "opt.optimize", workload, 0.0);
        optimized =
            sc::opt::optimize(designs[d].program, plan, sweep_opt_config());
      }
      for (std::size_t k = 0; k < kSweepSeedsPerDesign; ++k) {
        const std::vector<Bitstream> streams =
            replay_whole(optimized.program, optimized.plan,
                         sweep_config(designs[d].exec_seeds[k]), &tracer,
                         tally, workload);
        if (round == 0) {
          check_streams("design-sweep design " + std::to_string(d), streams,
                        runs[d].runs[k].streams);
        }
      }
    }
    if (round > 0) decomposition.add(std::move(tally));
  };
  const std::vector<std::vector<double>> times = interleave(
      15, {[&](std::size_t) { runs = request(serial); }, replay,
          [&](std::size_t) {
            const Clock::time_point start = Clock::now();
            const std::vector<DesignRun> pooled_runs = request(pooled);
            const double wall = seconds_since(start);
            double busy = 0.0;
            for (const DesignRun& run : pooled_runs) busy += run.busy_s;
            idle.push_back(1.0 - busy / (wall * pooled.threads()));
          }});

  for (const std::string& layer : rng_kernel_layers()) {
    decomposition.report_layer(outcome, layer, true);
  }
  decomposition.report_layer(outcome, "convert.regenerate", false);
  for (const std::string& layer : op_layers(false)) {
    decomposition.report_layer(outcome, layer, true);
  }
  decomposition.report_layer(outcome, "graph.plan", false);
  decomposition.report_layer(outcome, "opt.optimize", false);
  outcome.add("design-sweep.graph.plan.inserted_units",
              static_cast<double>(inserted), "count");
  check_ratio(decomposition, workload, times[0], times[1]);
  outcome.add("design-sweep.engine.scaling_eff",
              scaling_efficiency(times[0], times[2], pooled.threads()),
              "ratio");
  idle.erase(idle.begin());  // the warm-up round
  outcome.add("design-sweep.engine.idle_share", median(idle), "ratio");

  // Cold LFSR: construct a width-12 register and draw one stream's block.
  std::vector<std::uint32_t> block(kSweepBits);
  std::vector<double> cold;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const Clock::time_point start = Clock::now();
    sc::rng::Lfsr lfsr(kSweepWidth, static_cast<std::uint32_t>(mix(i)));
    lfsr.fill(block.data(), block.size());
    cold.push_back(seconds_since(start));
  }
  outcome.add("design-sweep.rng.lfsr_cold_us", median(cold) * 1e6, "us");
}

void TraceRun::long_stream() {
  const char* const workload = "long-stream";
  const Program program = op16_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  ExecConfig config =
      op16_config(kLongBits, base_seed_set(options.seed, 1)[0]);
  config.keep_streams = false;
  sc::engine::Session serial(sc::engine::SessionConfig{1});
  sc::engine::Session pooled(sc::engine::SessionConfig{workers});
  const std::unique_ptr<ExecutorBackend> serial_backend =
      make_engine_backend(serial);
  const std::unique_ptr<ExecutorBackend> pooled_backend =
      make_engine_backend(pooled);
  Decomposition decomposition(workload);
  std::size_t chunks = 0;

  const std::vector<std::vector<double>> times = interleave(
      5, {[&](std::size_t) { (void)serial_backend->run(program, plan, config); },
          [&](std::size_t round) {
            LayerTally tally;
            std::vector<Bitstream> streams;
            chunks = replay_chunked(program, plan, config,
                                    serial.config().chunk_bits, &tracer, tally,
                                    workload, round == 0 ? &streams : nullptr);
            if (round > 0) {
              decomposition.add(std::move(tally));
              return;
            }
            ExecConfig kept = config;
            kept.keep_streams = true;
            check_streams(workload, streams,
                          serial_backend->run(program, plan, kept).streams);
          },
          [&](std::size_t) { (void)pooled_backend->run(program, plan, config); }});

  for (const std::string& layer : rng_kernel_layers()) {
    decomposition.report_layer(outcome, layer, true);
  }
  for (const std::string& layer : op_layers(true)) {
    decomposition.report_layer(outcome, layer, true);
  }
  check_ratio(decomposition, workload, times[0], times[1]);
  outcome.add("long-stream.engine.scaling_eff",
              scaling_efficiency(times[0], times[2], pooled.threads()),
              "ratio");
  outcome.add("long-stream.engine.chunks", static_cast<double>(chunks),
              "count");
}

void TraceRun::image_tiles() {
  const sc::img::Image image = image_frame(options.seed, 0);
  const sc::img::PipelineConfig config = image_config(options.seed, 0);
  const std::pair<sc::img::Variant, const char*> variants[] = {
      {sc::img::Variant::kNoManipulation, "none"},
      {sc::img::Variant::kRegeneration, "regeneration"},
      {sc::img::Variant::kSynchronizer, "synchronizer"}};
  sc::engine::Session serial(sc::engine::SessionConfig{1});
  sc::engine::Session pooled(sc::engine::SessionConfig{workers});

  std::vector<std::function<void(std::size_t)>> steps;
  for (const auto& entry : variants) {
    const sc::img::Variant variant = entry.first;
    steps.emplace_back([&, variant](std::size_t) {
      (void)sc::img::run_pipeline_tiled(image, variant, config, serial);
    });
    steps.emplace_back([&, variant](std::size_t) {
      (void)sc::img::run_pipeline_tiled(image, variant, config, pooled);
    });
  }
  const std::vector<std::vector<double>> times = interleave(7, steps);
  std::vector<double> serial_frames(times[0].size(), 0.0);
  std::vector<double> pooled_frames(times[0].size(), 0.0);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t i = 0; i < times[0].size(); ++i) {
      serial_frames[i] += times[2 * v][i];
      pooled_frames[i] += times[2 * v + 1][i];
    }
    outcome.add(std::string("image-tiles.img.frame_ms.") + variants[v].second,
                median(times[2 * v + 1]) * 1e3, "ms");
  }
  outcome.add("image-tiles.engine.scaling_eff",
              scaling_efficiency(serial_frames, pooled_frames,
                                 pooled.threads()),
              "ratio");
}

}  // namespace

Outcome run_trace(const Options& options) {
  TraceRun run{options};
  run.outcome.workers_used = run.workers;
  run.graph_op16();
  run.design_sweep();
  run.long_stream();
  run.image_tiles();
  run.outcome.info.emplace_back(
      "trace_events", static_cast<double>(run.tracer.event_count()));
  if (run.tracer.dropped_events() != 0) run.fail("trace ring dropped events");
  run.tracer.write_chrome_trace(options.trace_out);
  return std::move(run.outcome);
}

}  // namespace scbench
