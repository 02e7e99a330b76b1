#include "graph/backend.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "analysis/analyzer.hpp"
#include "bitstream/encoding.hpp"
#include "convert/regenerator.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/pair_transform.hpp"
#include "core/synchronizer.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/session.hpp"
#include "fault/inject.hpp"
#include "graph/seeds.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "opt/optimize.hpp"
#include "rng/lfsr.hpp"

namespace sc::graph {
namespace {

using seeds::Role;
using seeds::derive_seed32;

// ------------------------------------------------------------- shared bits

/// Regenerates both operands from one shared trace with the second
/// comparator complemented, producing SCC = -1 between the outputs.
std::pair<Bitstream, Bitstream> regenerate_complementary(
    const Bitstream& a, const Bitstream& b, rng::RandomSource& source) {
  const std::size_t n = a.size();
  const std::uint32_t mask = static_cast<std::uint32_t>(source.range() - 1);
  const std::uint64_t level_a =
      n == 0 ? 0 : (a.count_ones() * source.range() + n / 2) / n;
  const std::uint64_t level_b =
      n == 0 ? 0 : (b.count_ones() * source.range() + n / 2) / n;
  Bitstream out_a(n);
  Bitstream out_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = source.next();
    if (r < level_a) out_a.set(i, true);
    // Complemented comparator: uses mask - r, so the 1-regions of the two
    // outputs overlap as little as possible.
    if ((mask - r) < level_b) out_b.set(i, true);
  }
  return {std::move(out_a), std::move(out_b)};
}

/// A fix's aux generators (fix_seed_sites), constructed.
std::vector<std::unique_ptr<rng::Lfsr>> fix_generators(
    const PairFix& fix, const ExecConfig& config, std::uint32_t seed_tag) {
  std::vector<std::unique_ptr<rng::Lfsr>> out;
  for (const SeedSite& site : fix_seed_sites(fix, seed_tag)) {
    out.push_back(std::make_unique<rng::Lfsr>(
        config.width, site.seed32(config.seed), site.rotation));
  }
  return out;
}

/// In-stream manipulator FSM for a planned fix (nullptr for regeneration
/// kinds, which are not per-cycle transforms).
std::unique_ptr<core::PairTransform> make_fix_transform(
    const PairFix& fix, const ExecConfig& config, std::uint32_t seed_tag) {
  switch (fix.fix) {
    case FixKind::kSynchronizer:
      return std::make_unique<core::Synchronizer>(
          core::Synchronizer::Config{config.sync_depth, false, 0});
    case FixKind::kDesynchronizer:
      return std::make_unique<core::Desynchronizer>(
          core::Desynchronizer::Config{config.sync_depth, false});
    case FixKind::kDecorrelator: {
      auto sources = fix_generators(fix, config, seed_tag);
      return std::make_unique<core::Decorrelator>(
          config.shuffle_depth, std::move(sources[0]), std::move(sources[1]));
    }
    case FixKind::kDecorrelatorChain:
      return std::make_unique<core::DecorrelatorChainLink>(
          config.shuffle_depth,
          std::move(fix_generators(fix, config, seed_tag)[0]));
    default:
      return nullptr;
  }
}

/// Whole-stream regeneration fix (counts the operands, then re-encodes).
void apply_regeneration(const PairFix& fix, Bitstream& a, Bitstream& b,
                        const ExecConfig& config, std::uint32_t seed_tag) {
  const auto sources = fix_generators(fix, config, seed_tag);
  switch (fix.fix) {
    case FixKind::kRegenerateShared: {
      const auto bus = convert::regenerate_bus_correlated({a, b}, *sources[0]);
      a = bus[0];
      b = bus[1];
      return;
    }
    case FixKind::kRegenerateDistinct:
      a = convert::regenerate(a, *sources[0]);
      b = convert::regenerate(b, *sources[1]);
      return;
    case FixKind::kRegenerateComplementary: {
      auto pair = regenerate_complementary(a, b, *sources[0]);
      a = std::move(pair.first);
      b = std::move(pair.second);
      return;
    }
    default:
      return;
  }
}

// ------------------------------------------------------------ telemetry

/// Per-run execution counters.
void record_run_metrics(obs::Telemetry* telemetry, const char* backend,
                        const Program& program, const ProgramPlan& plan,
                        const ExecConfig& config) {
  if (telemetry == nullptr) return;
  const auto n = static_cast<std::uint64_t>(config.stream_length);
  obs::MetricsRegistry& metrics = telemetry->metrics();
  metrics.counter("backend.runs").inc();
  metrics.counter(std::string("backend.") + backend + ".runs").inc();
  metrics.counter("backend.bits_processed").add(n * program.node_count());
  // Every seed site is one generator that draws one value per cycle
  // (group traces, operator-private slots, fix aux sources), so the draw
  // count is exact and costs nothing on the hot path.
  metrics.counter("backend.rng_draws")
      .add(seed_sites(program, plan).size() * n);
}

/// An engine run's chunked accounting.
void record_chunked_run(obs::Telemetry* telemetry,
                        const engine::ChunkedRunStats& stats) {
  if (telemetry == nullptr) return;
  obs::MetricsRegistry& metrics = telemetry->metrics();
  metrics.counter("engine.chunked_runs").inc();
  metrics.counter("engine.chunks").add(stats.chunks);
  metrics.counter("engine.stream_bits").add(stats.bits);
  metrics.gauge("engine.buffer.peak_bits")
      .set(static_cast<double>(stats.peak_buffer_bits));
}

/// Resolves the telemetry's probe specs against the *executed* program
/// (same name contract as fault plans: absent edges are skipped).
obs::ProbeSet make_probe_set(obs::Telemetry* telemetry,
                             const Program& program) {
  obs::ProbeSet set;
  if (telemetry == nullptr) return set;
  for (const obs::ProbeSpec& spec : telemetry->probe_specs()) {
    const NodeId x = program.find(spec.edge_x);
    if (x == kInvalidNode) continue;
    const bool pair = !spec.edge_y.empty();
    NodeId y = kInvalidNode;
    if (pair) {
      y = program.find(spec.edge_y);
      if (y == kInvalidNode) continue;
    }
    set.add(spec, pair, x, pair ? y : 0, telemetry->tracer());
  }
  return set;
}

OpContext context_for(const Program& program, NodeId id,
                      const ExecConfig& config) {
  OpContext ctx;
  ctx.stream_length = config.stream_length;
  ctx.width = config.width;
  ctx.node = program.node(id).seed_tag;  // stable across optimizer rewrites
  ctx.base_seed = config.seed;
  return ctx;
}

/// Operand slots a node's planned fixes write to (fixes mutate their pair
/// in place, so those slots — and only those — need private copies of the
/// producer streams).
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

// ------------------------------------------------------------- the executor

/// Keeps a node's chunk in its result stream.  A chunk that is the whole
/// stream is moved over (nothing reads the node buffer after the last
/// chunk); shorter chunks are copied in at their word-aligned offset.
void keep_chunk(Bitstream& kept, Bitstream& chunk, std::size_t offset,
                std::size_t n) {
  if (chunk.size() == n) {
    kept = std::move(chunk);
    return;
  }
  if (offset == 0) kept.assign_zero(n);
  const std::vector<Bitstream::Word>& words = chunk.words();
  std::copy(words.begin(), words.end(), kept.word_data() + offset / 64);
}

/// Per-node state of one run, built once before the first chunk.
struct NodeState {
  // Sources: the RNG group's trace (one-chunk runs) or a lazy SNG (chunked
  // runs); see the source comment in execute().
  const std::vector<std::uint32_t>* trace = nullptr;
  std::unique_ptr<engine::SngChunkSource> source;
  // Ops: planned fixes (a null transform is a regeneration step) and the
  // evaluator.
  std::vector<const PairFix*> fixes;
  std::vector<std::unique_ptr<core::PairTransform>> fix_transforms;
  std::unique_ptr<OpEvaluator> evaluator;
  std::vector<unsigned> fixed_slots;  ///< operand slots the fixes mutate
  std::vector<Bitstream> scratch;     ///< chunk copies, one per fixed slot
  std::vector<const Bitstream*> operand_chunks;  ///< per-slot chunk views

  Bitstream chunk;         ///< this node's bits of the current chunk
  std::uint64_t ones = 0;  ///< running ones count (value reduction)
};

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kReference:
      return "reference";
    case BackendKind::kKernel:
      return "kernel";
    case BackendKind::kEngine:
      return "engine";
  }
  return "";
}

/// The one executor: builds every node's state once, then advances the
/// nodes level by level, chunk by chunk.  The backends configure it:
///  * reference — one n-bit chunk through the bit-serial base
///    PairTransform::process and OpEvaluator::process, called non-virtually;
///  * kernel — one n-bit chunk through the process() overrides;
///  * engine — chunks of the session's size (kDefaultChunkBits without
///    one), with each level fanned across the session's pool.
/// A plan with a regeneration fix runs as one n-bit chunk on every
/// backend: S/D counts the whole operand before the D/S re-encode can emit
/// bit 0.
ExecutionResult execute(const Program& program, const ProgramPlan& plan,
                        const ExecConfig& config, BackendKind kind,
                        engine::Session* session) {
  const bool engine_run = kind == BackendKind::kEngine;
  const bool bit_serial = kind == BackendKind::kReference;
  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Tracer* const tracer = obs::tracer_of(telemetry);
  obs::Span run_span(tracer, std::string("backend.run.") + backend_name(kind),
                     "backend");
  run_span.arg("nodes", static_cast<std::uint64_t>(program.node_count()));
  run_span.arg("stream_bits",
               static_cast<std::uint64_t>(config.stream_length));
  run_span.arg("threads",
               static_cast<std::uint64_t>(
                   session != nullptr ? session->threads() : 1));
  const fault::ResolvedFaultPlan faults =
      fault::resolve(config.fault_plan, program, plan, telemetry);
  const std::size_t n = config.stream_length;
  // 64-bit: `1u << 32` is UB and a uint32 period wraps to 0 at width 32.
  const std::uint64_t natural = std::uint64_t{1} << config.width;
  const bool one_chunk = !engine_run || plan.has_regeneration();
  std::size_t chunk_bits = n;
  if (!one_chunk) {
    chunk_bits = session != nullptr ? session->config().chunk_bits
                                    : engine::kDefaultChunkBits;
    // Word-align so chunks land in the kept streams by word copy; keep
    // >= 64.
    chunk_bits = std::max<std::size_t>(64, chunk_bits & ~std::size_t{63});
  }

  // --- sources ------------------------------------------------------------
  // One-chunk runs draw one Lfsr::next() trace per RNG group and compare
  // each source against it bit by bit; chunked runs pack every source's
  // chunks with an engine::SngChunkSource.  Both give the same bits.  The
  // one-chunk loop stays per bit because scbench's traced replay
  // (scbench/src/trace.cpp) times exactly this loop as rng.group_trace: a
  // faster loop here would push that replay's layers.sum_ratio past 1.25.
  // Re-syncing trace.cpp with this executor lets the branch go.
  std::map<unsigned, std::vector<std::uint32_t>> traces;
  if (one_chunk) {
    obs::Span trace_span(tracer, "backend.group_traces", "backend");
    for (NodeId id = 0; id < program.node_count(); ++id) {
      const ProgramNode& node = program.node(id);
      if (node.kind == ProgramNode::Kind::kOp) continue;
      if (traces.count(node.rng_group) != 0) continue;
      rng::Lfsr source(config.width, derive_seed32(config.seed, node.rng_group,
                                                   Role::kGroupTrace));
      std::vector<std::uint32_t> trace(n);
      for (std::size_t i = 0; i < n; ++i) trace[i] = source.next();
      traces.emplace(node.rng_group, std::move(trace));
    }
    trace_span.arg("groups", static_cast<std::uint64_t>(traces.size()));
  }

  // --- per-node state -----------------------------------------------------
  std::vector<NodeState> states(program.node_count());
  std::vector<std::vector<NodeId>> levels;  // topological level -> nodes
  {
    std::vector<unsigned> level_of(program.node_count(), 0);
    for (NodeId id = 0; id < program.node_count(); ++id) {
      const ProgramNode& node = program.node(id);
      NodeState& state = states[id];
      if (node.kind != ProgramNode::Kind::kOp) {
        if (one_chunk) {
          state.trace = &traces.at(node.rng_group);
        } else {
          state.source = std::make_unique<engine::SngChunkSource>(
              std::make_unique<rng::Lfsr>(
                  config.width, derive_seed32(config.seed, node.rng_group,
                                              Role::kGroupTrace)),
              unipolar_level64(node.value, natural), n);
        }
      } else {
        for (NodeId operand : node.operands) {
          level_of[id] = std::max(level_of[id], level_of[operand] + 1);
        }
        state.fixes = plan.fixes_for(id);
        for (std::size_t lane = 0; lane < state.fixes.size(); ++lane) {
          // Wrapped fix FSMs (fault plans) have no word path; their
          // process() steps every cycle with state carried across chunks,
          // landing the corruption on the same absolute cycle on every
          // backend.
          state.fix_transforms.push_back(fault::wrap_fsm_faults(
              make_fix_transform(*state.fixes[lane], config, node.seed_tag),
              faults, id, static_cast<unsigned>(lane)));
          if (state.fix_transforms.back() != nullptr) {
            state.fix_transforms.back()->begin_stream(n);
          }
        }
        state.evaluator = program.def_of(id).make_evaluator(
            context_for(program, id, config));
        state.evaluator->begin(n);
        state.fixed_slots = fixed_slots_of(state.fixes);
        state.scratch.resize(state.fixed_slots.size());
        state.operand_chunks.resize(node.operands.size());
      }
      if (level_of[id] >= levels.size()) levels.resize(level_of[id] + 1);
      levels[level_of[id]].push_back(id);
    }
  }

  // --- the chunk loop -----------------------------------------------------
  const auto advance_node = [&](NodeId id, std::size_t take,
                                std::size_t offset) {
    const ProgramNode& node = program.node(id);
    // Recorded from whichever pool worker advances the node, so the trace
    // timeline shows per-chunk activity fanned across threads.
    obs::Span node_span(
        tracer, node.name.empty() ? "node#" + std::to_string(id) : node.name,
        node.kind == ProgramNode::Kind::kOp ? "node.op" : "node.source");
    node_span.arg("offset", static_cast<std::uint64_t>(offset));
    NodeState& state = states[id];
    if (node.kind != ProgramNode::Kind::kOp) {
      if (state.source != nullptr) {
        state.source->next_chunk(state.chunk, take);
      } else {
        // The group-trace compare (see "sources" above), with the trace and
        // the level held in locals.
        const std::uint64_t level = unipolar_level64(node.value, natural);
        const std::vector<std::uint32_t>& trace = *state.trace;
        Bitstream stream(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (trace[i] < level) stream.set(i, true);
        }
        state.chunk = std::move(stream);
      }
    } else {
      // Unfixed operands read the producer's chunk in place; only the
      // slots a fix mutates are copied into scratch.
      for (std::size_t k = 0; k < node.operands.size(); ++k) {
        state.operand_chunks[k] = &states[node.operands[k]].chunk;
      }
      for (std::size_t c = 0; c < state.fixed_slots.size(); ++c) {
        const unsigned slot = state.fixed_slots[c];
        state.scratch[c] = states[node.operands[slot]].chunk;
        state.operand_chunks[slot] = &state.scratch[c];
      }
      const auto scratch_of = [&state](unsigned slot) -> Bitstream& {
        const auto it = std::find(state.fixed_slots.begin(),
                                  state.fixed_slots.end(), slot);
        return state.scratch[static_cast<std::size_t>(
            it - state.fixed_slots.begin())];
      };
      for (std::size_t lane = 0; lane < state.fixes.size(); ++lane) {
        // A child span per correction: the profiler's collapsed stacks then
        // split a node's cost into "the operator" (the node span's
        // exclusive time) vs each planned fix (fix.decorrelator, ...).
        const PairFix& fix = *state.fixes[lane];
        obs::Span fix_span(tracer, "fix." + to_string(fix.fix), "node.fix");
        Bitstream& a = scratch_of(fix.operand_a);
        Bitstream& b = scratch_of(fix.operand_b);
        core::PairTransform* const transform =
            state.fix_transforms[lane].get();
        // As with the evaluator below, the non-virtual base call is the
        // bit-serial reference and the override is the circuit's word path.
        if (transform == nullptr) {
          apply_regeneration(fix, a, b, config, node.seed_tag);
        } else if (bit_serial) {
          transform->core::PairTransform::process(a.word_data(),
                                                  b.word_data(), take);
        } else {
          transform->process(a.word_data(), b.word_data(), take);
        }
      }
      state.chunk.assign_zero(take);
      const sc::span<const Bitstream* const> ins(state.operand_chunks.data(),
                                                 state.operand_chunks.size());
      if (bit_serial) {
        // Non-virtual call: the base implementation IS the bit-serial
        // reference semantics; subclass overrides are the fast paths
        // checked against it.
        state.evaluator->OpEvaluator::process(ins, state.chunk);
      } else {
        state.evaluator->process(ins, state.chunk);
      }
    }
    // Corrupt the chunk at its absolute offset *before* the ones count and
    // the downstream reads: consumers of a faulted edge must see the
    // faulted bits.
    fault::apply_edge_faults(faults, id, state.chunk, offset);
    state.ones += state.chunk.count_ones();
  };

  ExecutionResult result;
  if (config.keep_streams) result.streams.resize(program.node_count());
  obs::ProbeSet probes = make_probe_set(telemetry, program);
  engine::ChunkedRunStats stats;
  for (std::size_t offset = 0; offset < n; offset += chunk_bits) {
    const std::size_t take = std::min(chunk_bits, n - offset);
    // Only engine runs record chunk spans (the other backends' traces keep
    // their node spans directly under the run span).
    obs::Span chunk_span(engine_run ? tracer : nullptr, "engine.chunk",
                         "engine");
    chunk_span.arg("offset", static_cast<std::uint64_t>(offset));
    chunk_span.arg("bits", static_cast<std::uint64_t>(take));
    for (const std::vector<NodeId>& level : levels) {
      // Nodes of one level only read lower-level chunks, so they advance
      // independently; fan them across the session pool when it helps.
      if (session != nullptr && session->threads() > 1 && level.size() > 1) {
        session->pool().for_each(level.size(), [&](std::size_t i) {
          advance_node(level[i], take, offset);
        });
      } else {
        for (NodeId id : level) advance_node(id, take, offset);
      }
    }
    // The live tap: every node's chunk of this offset is still resident,
    // so probes observe internal edges as the stream advances.
    for (const auto& entry : probes.bound()) {
      entry->probe.feed(states[entry->node_x].chunk,
                        entry->pair ? &states[entry->node_y].chunk : nullptr,
                        offset, take);
    }
    if (config.keep_streams) {
      for (NodeId id = 0; id < program.node_count(); ++id) {
        keep_chunk(result.streams[id], states[id].chunk, offset, n);
      }
    }
    stats.bits += take;
    ++stats.chunks;
  }

  if (engine_run) {
    // Each node holds one chunk of at most n bits.
    stats.peak_buffer_bits = program.node_count() * std::min(chunk_bits, n);
    obs::Telemetry* const session_telemetry =
        session != nullptr ? session->telemetry() : nullptr;
    record_chunked_run(telemetry, stats);
    if (session_telemetry != telemetry) {
      record_chunked_run(session_telemetry, stats);
    }
  }
  if (telemetry != nullptr) {
    record_run_metrics(telemetry, backend_name(kind), program, plan, config);
    probes.publish(*telemetry);
  }

  const std::vector<double> exact = program.exact_values();
  double total = 0.0;
  for (NodeId output : program.outputs()) {
    const double measured =
        n == 0 ? 0.0
               : static_cast<double>(states[output].ones) /
                     static_cast<double>(n);
    result.output_nodes.push_back(output);
    result.values.push_back(measured);
    result.exact.push_back(exact[output]);
    result.abs_errors.push_back(std::abs(measured - exact[output]));
    total += result.abs_errors.back();
  }
  result.mean_abs_error =
      result.output_nodes.empty()
          ? 0.0
          : total / static_cast<double>(result.output_nodes.size());
  return result;
}

// --------------------------------------------------------------- backends

/// ExecConfig::analyze gate: run the static analyzer over the caller's
/// (program, plan) and refuse to execute on error-class findings.  Runs
/// before opt::optimize so diagnostics name the caller's node ids.
void analyze_or_throw(const Program& program, const ProgramPlan& plan,
                      const ExecConfig& config) {
  const analysis::AnalysisReport report = analysis::analyze(
      program, plan, analysis::AnalyzerConfig::from(config));
  if (!report.has_errors()) return;
  std::string what =
      "static analysis rejected the program (" +
      std::to_string(report.count(analysis::Severity::kError)) +
      " error(s)):";
  for (const analysis::Diagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.severity != analysis::Severity::kError) continue;
    what += "\n  [" + diagnostic.id + "] " + diagnostic.message;
  }
  throw std::runtime_error(what);
}

/// Every backend: the executor in one of its three configurations (the
/// kind, plus the engine's optional session).
class Backend final : public ExecutorBackend {
 public:
  Backend(BackendKind kind, engine::Session* session)
      : kind_(kind), session_(session) {}

  [[nodiscard]] std::string name() const override {
    return backend_name(kind_);
  }

  /// The optimizer front (ExecConfig::optimize) rewrites the planned
  /// program with opt::optimize, executes the result, and maps the
  /// per-node data back onto the caller's node ids: removed nodes get
  /// empty streams, CSE-merged duplicates share the survivor's stream, and
  /// output_nodes keep the original ids and order.
  ExecutionResult run(const Program& program, const ProgramPlan& plan,
                      const ExecConfig& config) override {
    // Throws std::invalid_argument outside 3..32, before the analyzer or
    // the executor computes 1 << width (a 64-bit shift by >= 64 is UB).
    (void)rng::Lfsr::maximal_taps(config.width);
    if (config.analyze) analyze_or_throw(program, plan, config);
    if (!config.optimize) {
      return execute(program, plan, config, kind_, session_);
    }
    opt::OptConfig opt_config;
    opt_config.planner.sync_depth = config.sync_depth;
    opt_config.planner.shuffle_depth = config.shuffle_depth;
    opt_config.planner.width = config.width;
    opt_config.width = config.width;
    opt_config.telemetry = config.telemetry;
    opt_config.planner.telemetry = config.telemetry;
    const opt::OptResult optimized = opt::optimize(program, plan, opt_config);
    ExecutionResult result =
        execute(optimized.program, optimized.plan, config, kind_, session_);
    result.output_nodes.assign(program.outputs().begin(),
                               program.outputs().end());
    if (config.keep_streams) {
      // Move each optimized stream into its last caller slot (CSE-merged
      // duplicates alias one optimized node, so earlier slots copy); long
      // keep_streams runs would otherwise transiently double stream memory.
      std::vector<NodeId> last_user(result.streams.size(), kInvalidNode);
      for (NodeId id = 0; id < program.node_count(); ++id) {
        const NodeId mapped = optimized.node_map[id];
        if (mapped != kInvalidNode) last_user[mapped] = id;
      }
      std::vector<Bitstream> streams(program.node_count());
      for (NodeId id = 0; id < program.node_count(); ++id) {
        const NodeId mapped = optimized.node_map[id];
        if (mapped == kInvalidNode) continue;
        streams[id] = last_user[mapped] == id
                          ? std::move(result.streams[mapped])
                          : result.streams[mapped];
      }
      result.streams = std::move(streams);
    }
    return result;
  }

 private:
  BackendKind kind_;
  engine::Session* session_;
};

}  // namespace

std::unique_ptr<ExecutorBackend> make_backend(BackendKind kind) {
  return std::make_unique<Backend>(kind, nullptr);
}

std::unique_ptr<ExecutorBackend> make_engine_backend(
    engine::Session& session) {
  return std::make_unique<Backend>(BackendKind::kEngine, &session);
}

std::vector<SeedSite> fix_seed_sites(const PairFix& fix,
                                     std::uint32_t seed_tag) {
  SeedSite a;
  a.role = Role::kFixAuxA;
  a.key = seed_tag;
  // The operand slot pair, not the fix's position in the op's fix list:
  // positional lanes would reseed every surviving fix whenever a plan
  // rewrite drops an earlier one (e.g. the optimizer's replan after CSE
  // proving a kPositive pair satisfied), breaking the dedup-only
  // pipeline's bit-identity; the pair is invariant under such rewrites
  // and unique within an op (operand_a < operand_b < kMaxArity).
  a.lane = fix.operand_a * kMaxArity + fix.operand_b;
  a.node = fix.op_node;
  a.fix = &fix;
  SeedSite b = a;
  b.role = Role::kFixAuxB;
  switch (fix.fix) {
    case FixKind::kDecorrelator:
      // The second buffer's source is rotated so the two address schedules
      // stay distinct even if the width-masked seeds alias (lockstep
      // buffers do not decorrelate).
      b.rotation = 3;
      [[fallthrough]];
    case FixKind::kRegenerateDistinct:
      return {a, b};
    case FixKind::kDecorrelatorChain:
    case FixKind::kRegenerateShared:
    case FixKind::kRegenerateComplementary:
      return {a};
    default:
      return {};  // synchronizer / desynchronizer draw no RNG
  }
}

std::vector<SeedSite> seed_sites(const Program& program,
                                 const ProgramPlan& plan) {
  std::vector<SeedSite> out;
  std::set<unsigned> groups;
  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    SeedSite site;
    site.node = id;
    if (node.kind != ProgramNode::Kind::kOp) {
      if (!groups.insert(node.rng_group).second) continue;
      site.key = node.rng_group;
      out.push_back(site);
      continue;
    }
    site.role = Role::kOpPrivate;
    site.key = node.seed_tag;
    for (unsigned slot = 0; slot < program.def_of(id).rng_slots; ++slot) {
      site.lane = slot;
      out.push_back(site);
    }
    for (const PairFix* fix : plan.fixes_for(id)) {
      const std::vector<SeedSite> aux = fix_seed_sites(*fix, node.seed_tag);
      out.insert(out.end(), aux.begin(), aux.end());
    }
  }
  return out;
}

}  // namespace sc::graph
