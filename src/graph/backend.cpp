#include "graph/backend.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
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

/// Stable per-fix seed lane: the operand slot pair, not the fix's
/// positional index in the op's fix list.  Positional lanes would reseed
/// every surviving fix whenever a plan rewrite drops an earlier one
/// (e.g. the optimizer's replan after CSE proving a kPositive pair
/// satisfied), breaking the dedup-only pipeline's bit-identity contract;
/// the slot pair is invariant under such rewrites and unique within an
/// op (operand_a < operand_b < kMaxArity).
unsigned fix_lane(const PairFix& fix) {
  return fix.operand_a * kMaxArity + fix.operand_b;
}

/// In-stream manipulator FSM for a planned fix (nullptr for regeneration
/// kinds, which are not per-cycle transforms).  `node` is the op node's
/// seed_tag, not its id — the tag survives optimizer rewrites, so a plan
/// that only dropped or merged other nodes draws identical aux sequences.
std::unique_ptr<core::PairTransform> make_fix_transform(
    FixKind kind, const ExecConfig& config, NodeId node, unsigned lane) {
  switch (kind) {
    case FixKind::kSynchronizer:
      return std::make_unique<core::Synchronizer>(
          core::Synchronizer::Config{config.sync_depth, false, 0});
    case FixKind::kDesynchronizer:
      return std::make_unique<core::Desynchronizer>(
          core::Desynchronizer::Config{config.sync_depth, false});
    case FixKind::kDecorrelator:
      // The second buffer's source is rotated so the two address schedules
      // stay distinct even if the width-masked seeds alias (lockstep
      // buffers do not decorrelate).
      return std::make_unique<core::Decorrelator>(
          config.shuffle_depth,
          std::make_unique<rng::Lfsr>(
              config.width,
              derive_seed32(config.seed, node, Role::kFixAuxA, lane)),
          std::make_unique<rng::Lfsr>(
              config.width,
              derive_seed32(config.seed, node, Role::kFixAuxB, lane),
              /*rotation=*/3));
    case FixKind::kDecorrelatorChain:
      return std::make_unique<core::DecorrelatorChainLink>(
          config.shuffle_depth,
          std::make_unique<rng::Lfsr>(
              config.width,
              derive_seed32(config.seed, node, Role::kFixAuxA, lane)));
    default:
      return nullptr;
  }
}

/// Whole-stream regeneration fix (counts the operands, then re-encodes).
void apply_regeneration(FixKind kind, Bitstream& a, Bitstream& b,
                        const ExecConfig& config, NodeId node, unsigned lane) {
  switch (kind) {
    case FixKind::kRegenerateShared: {
      rng::Lfsr source(config.width,
                       derive_seed32(config.seed, node, Role::kFixAuxA, lane));
      const auto bus = convert::regenerate_bus_correlated({a, b}, source);
      a = bus[0];
      b = bus[1];
      return;
    }
    case FixKind::kRegenerateDistinct: {
      rng::Lfsr source_a(
          config.width,
          derive_seed32(config.seed, node, Role::kFixAuxA, lane));
      rng::Lfsr source_b(
          config.width,
          derive_seed32(config.seed, node, Role::kFixAuxB, lane));
      a = convert::regenerate(a, source_a);
      b = convert::regenerate(b, source_b);
      return;
    }
    case FixKind::kRegenerateComplementary: {
      rng::Lfsr source(config.width,
                       derive_seed32(config.seed, node, Role::kFixAuxA, lane));
      auto pair = regenerate_complementary(a, b, source);
      a = std::move(pair.first);
      b = std::move(pair.second);
      return;
    }
    default:
      return;
  }
}

// ------------------------------------------------------------ telemetry

/// Per-run execution counters shared by the whole-stream and chunked
/// paths.
void record_run_metrics(obs::Telemetry* telemetry, const char* backend,
                        const Program& program, const ProgramPlan& plan,
                        const ExecConfig& config) {
  if (telemetry == nullptr) return;
  const auto n = static_cast<std::uint64_t>(config.stream_length);
  obs::MetricsRegistry& metrics = telemetry->metrics();
  metrics.counter("backend.runs").inc();
  metrics.counter(std::string("backend.") + backend + ".runs").inc();
  metrics.counter("backend.bits_processed").add(n * program.node_count());
  // Every derived seed seeds one generator that draws one value per
  // cycle (group traces, operator-private slots, fix aux sources), so the
  // draw count is exact and costs nothing on the hot path.
  metrics.counter("backend.rng_draws")
      .add(derived_seeds(program, plan, config).size() * n);
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

void reduce_outputs(const Program& program, ExecutionResult& result,
                    const std::vector<double>& measured) {
  const std::vector<double> exact = program.exact_values();
  double total = 0.0;
  for (NodeId output : program.outputs()) {
    result.output_nodes.push_back(output);
    result.values.push_back(measured[output]);
    result.exact.push_back(exact[output]);
    result.abs_errors.push_back(std::abs(measured[output] - exact[output]));
    total += result.abs_errors.back();
  }
  result.mean_abs_error =
      result.output_nodes.empty()
          ? 0.0
          : total / static_cast<double>(result.output_nodes.size());
}

// ------------------------------------------------------- whole-stream path

ExecutionResult run_whole(const Program& program, const ProgramPlan& plan,
                          const ExecConfig& config, bool kernel_path) {
  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Tracer* const tracer = obs::tracer_of(telemetry);
  const char* const backend_name = kernel_path ? "kernel" : "reference";
  obs::Span run_span(tracer, std::string("backend.run.") + backend_name,
                     "backend");
  run_span.arg("nodes", static_cast<std::uint64_t>(program.node_count()));
  run_span.arg("stream_bits",
               static_cast<std::uint64_t>(config.stream_length));
  const fault::ResolvedFaultPlan faults =
      fault::resolve(config.fault_plan, program, &plan, telemetry);
  const std::size_t n = config.stream_length;
  // 64-bit: `1u << 32` is UB and a uint32 period wraps to 0 at width 32.
  const std::uint64_t natural = std::uint64_t{1} << config.width;

  // --- group traces -------------------------------------------------------
  std::map<unsigned, std::vector<std::uint32_t>> traces;
  {
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

  ExecutionResult result;
  result.streams.resize(program.node_count());
  std::vector<double> measured(program.node_count(), 0.0);

  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    obs::Span node_span(
        tracer, node.name.empty() ? "node#" + std::to_string(id) : node.name,
        node.kind == ProgramNode::Kind::kOp ? "node.op" : "node.source");
    if (node.kind != ProgramNode::Kind::kOp) {
      const std::uint64_t level = unipolar_level64(node.value, natural);
      const auto& trace = traces.at(node.rng_group);
      Bitstream stream(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (trace[i] < level) stream.set(i, true);
      }
      result.streams[id] = std::move(stream);
      fault::apply_edge_faults(faults, id, result.streams[id], 0);
      measured[id] = result.streams[id].value();
      continue;
    }

    // --- operand views + planned pair fixes -------------------------------
    // Only fix-target slots get private copies (fixes mutate their pair in
    // place); everything else reads the producer stream directly.
    std::vector<const Bitstream*> operands(node.operands.size());
    for (std::size_t k = 0; k < node.operands.size(); ++k) {
      operands[k] = &result.streams[node.operands[k]];
    }
    const std::vector<const PairFix*> fixes = plan.fixes_for(id);
    const std::vector<unsigned> fixed_slots = fixed_slots_of(fixes);
    std::vector<Bitstream> copies(fixed_slots.size());
    for (std::size_t c = 0; c < fixed_slots.size(); ++c) {
      copies[c] = result.streams[node.operands[fixed_slots[c]]];
      operands[fixed_slots[c]] = &copies[c];
    }
    const auto copy_of = [&](unsigned slot) -> Bitstream& {
      const auto it =
          std::find(fixed_slots.begin(), fixed_slots.end(), slot);
      return copies[static_cast<std::size_t>(it - fixed_slots.begin())];
    };
    const NodeId tag = node.seed_tag;
    for (std::size_t position = 0; position < fixes.size(); ++position) {
      const PairFix& fix = *fixes[position];
      // A child span per correction: the profiler's collapsed stacks then
      // split a node's cost into "the operator" (the node span's exclusive
      // time) vs each planned fix (fix.decorrelator, fix.synchronizer, ...).
      obs::Span fix_span(tracer, "fix." + to_string(fix.fix), "node.fix");
      Bitstream& a = copy_of(fix.operand_a);
      Bitstream& b = copy_of(fix.operand_b);
      if (is_regenerating(fix.fix)) {
        apply_regeneration(fix.fix, a, b, config, tag, fix_lane(fix));
        continue;
      }
      const std::unique_ptr<core::PairTransform> transform =
          fault::wrap_fsm_faults(
              make_fix_transform(fix.fix, config, tag, fix_lane(fix)), faults,
              id, static_cast<unsigned>(position));
      // In place on the node's own slot copies.  As with the evaluators,
      // the non-virtual base call is the bit-serial reference and the
      // override is the circuit's word path.
      transform->begin_stream(n);
      if (kernel_path) {
        transform->process(a.word_data(), b.word_data(), n);
      } else {
        transform->core::PairTransform::process(a.word_data(), b.word_data(),
                                                n);
      }
    }

    // --- the operator itself ----------------------------------------------
    const OperatorDef& def = program.def_of(id);
    const std::unique_ptr<OpEvaluator> evaluator =
        def.make_evaluator(context_for(program, id, config));
    evaluator->begin(n);
    Bitstream out(n);
    const sc::span<const Bitstream* const> ins(operands.data(),
                                               operands.size());
    if (kernel_path) {
      evaluator->process(ins, out);
    } else {
      // Non-virtual call: the base implementation IS the bit-serial
      // reference semantics; subclass overrides are the fast paths
      // checked against it.
      evaluator->OpEvaluator::process(ins, out);
    }
    result.streams[id] = std::move(out);
    fault::apply_edge_faults(faults, id, result.streams[id], 0);
    measured[id] = result.streams[id].value();
  }

  reduce_outputs(program, result, measured);
  if (telemetry != nullptr) {
    record_run_metrics(telemetry, backend_name, program, plan, config);
    // Probes tap the finished (post-fault) streams; feeding them whole
    // yields the same windows as the chunked engine's live taps.
    obs::ProbeSet probes = make_probe_set(telemetry, program);
    if (!probes.empty()) {
      for (const auto& entry : probes.bound()) {
        entry->probe.feed(
            result.streams[entry->node_x],
            entry->pair ? &result.streams[entry->node_y] : nullptr, 0, n);
      }
      probes.publish(*telemetry);
    }
  }
  if (!config.keep_streams) result.streams.clear();
  return result;
}

// ------------------------------------------------------------ chunked path

/// Copies a chunk into `dst` at a word-aligned bit offset.
void copy_chunk_into(Bitstream& dst, const Bitstream& chunk,
                     std::size_t offset) {
  assert(offset % 64 == 0);
  const std::size_t word0 = offset / 64;
  const std::vector<Bitstream::Word>& src = chunk.words();
  Bitstream::Word* out = dst.word_data();
  for (std::size_t w = 0; w < src.size(); ++w) out[word0 + w] = src[w];
}

/// Per-node state of one chunked run.
struct ChunkNodeState {
  // Inputs/constants: lazy SNG source.
  std::unique_ptr<engine::SngChunkSource> source;
  // Ops: planned fixes and the evaluator.
  std::vector<std::unique_ptr<core::PairTransform>> fix_transforms;
  std::vector<const PairFix*> fixes;
  std::unique_ptr<OpEvaluator> evaluator;
  std::vector<unsigned> fixed_slots;  ///< operand slots the fixes mutate
  std::vector<Bitstream> scratch;     ///< chunk copies, one per fixed slot
  std::vector<const Bitstream*> operand_chunks;  ///< per-slot chunk views

  Bitstream chunk;            ///< this node's bits of the current chunk
  std::uint64_t ones = 0;     ///< running ones count (value reduction)
};

ExecutionResult run_chunked(const Program& program, const ProgramPlan& plan,
                            const ExecConfig& config,
                            engine::Session* session) {
  // Regeneration is stream-wide (S/D counts the whole operand before the
  // D/S re-encode can emit bit 0), so such plans cannot stream causally;
  // fall back to whole-stream kernel execution — still bit-identical.
  if (plan.has_regeneration()) {
    return run_whole(program, plan, config, /*kernel_path=*/true);
  }

  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Tracer* const tracer = obs::tracer_of(telemetry);
  obs::Span run_span(tracer, "backend.run.engine", "backend");
  run_span.arg("nodes", static_cast<std::uint64_t>(program.node_count()));
  run_span.arg("stream_bits",
               static_cast<std::uint64_t>(config.stream_length));
  run_span.arg("threads",
               static_cast<std::uint64_t>(
                   session != nullptr ? session->threads() : 1));
  const fault::ResolvedFaultPlan faults =
      fault::resolve(config.fault_plan, program, &plan, telemetry);
  const std::size_t n = config.stream_length;
  const std::uint64_t natural = std::uint64_t{1} << config.width;
  std::size_t chunk_bits =
      session != nullptr ? session->config().chunk_bits
                         : engine::kDefaultChunkBits;
  // Word-align so chunk concatenation is a word copy; keep >= 64.
  chunk_bits = std::max<std::size_t>(64, chunk_bits & ~std::size_t{63});

  ExecutionResult result;
  if (config.keep_streams) {
    result.streams.assign(program.node_count(), Bitstream());
    for (NodeId id = 0; id < program.node_count(); ++id) {
      result.streams[id] = Bitstream(n);
    }
  }

  // --- per-node state -----------------------------------------------------
  std::vector<ChunkNodeState> states(program.node_count());
  std::vector<std::vector<NodeId>> levels;  // topological level -> nodes
  {
    std::vector<unsigned> level_of(program.node_count(), 0);
    for (NodeId id = 0; id < program.node_count(); ++id) {
      const ProgramNode& node = program.node(id);
      ChunkNodeState& state = states[id];
      if (node.kind != ProgramNode::Kind::kOp) {
        state.source = std::make_unique<engine::SngChunkSource>(
            std::make_unique<rng::Lfsr>(
                config.width, derive_seed32(config.seed, node.rng_group,
                                            Role::kGroupTrace)),
            unipolar_level64(node.value, natural), n);
        level_of[id] = 0;
      } else {
        unsigned level = 0;
        for (NodeId operand : node.operands) {
          level = std::max(level, level_of[operand] + 1);
        }
        level_of[id] = level;
        state.fixes = plan.fixes_for(id);
        for (std::size_t lane = 0; lane < state.fixes.size(); ++lane) {
          // Wrapped fix FSMs (fault plans) have no word path; their
          // process() steps every cycle with state carried across chunks,
          // landing the corruption on the same absolute cycle as the
          // whole-stream backends.
          state.fix_transforms.push_back(fault::wrap_fsm_faults(
              make_fix_transform(state.fixes[lane]->fix, config,
                                 node.seed_tag, fix_lane(*state.fixes[lane])),
              faults, id, static_cast<unsigned>(lane)));
          state.fix_transforms.back()->begin_stream(n);
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
  engine::ChunkedRunStats stats;
  const auto advance_node = [&](NodeId id, std::size_t take,
                                std::size_t offset) {
    const ProgramNode& node = program.node(id);
    // Recorded from whichever pool worker advances the node, so the trace
    // timeline shows per-chunk activity fanned across threads.
    obs::Span node_span(
        tracer, node.name.empty() ? "node#" + std::to_string(id) : node.name,
        "chunk");
    node_span.arg("offset", static_cast<std::uint64_t>(offset));
    ChunkNodeState& state = states[id];
    if (node.kind != ProgramNode::Kind::kOp) {
      state.source->next_chunk(state.chunk, take);
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
        obs::Span fix_span(tracer, "fix." + to_string(state.fixes[lane]->fix),
                           "node.fix");
        state.fix_transforms[lane]->process(
            scratch_of(state.fixes[lane]->operand_a).word_data(),
            scratch_of(state.fixes[lane]->operand_b).word_data(), take);
      }
      state.chunk.assign_zero(take);
      state.evaluator->process(
          sc::span<const Bitstream* const>(state.operand_chunks.data(),
                                           state.operand_chunks.size()),
          state.chunk);
    }
    // Corrupt the chunk at its absolute offset *before* the ones count and
    // the downstream reads — consumers of a faulted edge must see the
    // faulted bits, exactly as in the whole-stream path.
    fault::apply_edge_faults(faults, id, state.chunk, offset);
    state.ones += state.chunk.count_ones();
    if (config.keep_streams) {
      copy_chunk_into(result.streams[id], state.chunk, offset);
    }
  };

  obs::ProbeSet probes = make_probe_set(telemetry, program);
  for (std::size_t offset = 0; offset < n; offset += chunk_bits) {
    const std::size_t take = std::min(chunk_bits, n - offset);
    obs::Span chunk_span(tracer, "engine.chunk", "engine");
    chunk_span.arg("offset", static_cast<std::uint64_t>(offset));
    chunk_span.arg("bits", static_cast<std::uint64_t>(take));
    for (const std::vector<NodeId>& level : levels) {
      // Nodes of one level only read lower-level chunks, so they advance
      // independently; fan them across the session pool when it helps.
      if (session != nullptr && session->threads() > 1 && level.size() > 1) {
        session->runner().for_each(level.size(), [&](std::size_t i) {
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
    stats.bits += take;
    ++stats.chunks;
  }
  stats.peak_buffer_bits = program.node_count() * chunk_bits;
  if (session != nullptr) {
    session->note_chunked(stats);
  }
  if (telemetry != nullptr &&
      (session == nullptr || session->telemetry() != telemetry)) {
    // Runs whose telemetry the session does not carry record the chunked
    // accounting directly (a bound session's note_chunked uses the same
    // metric names, into its own registry).
    obs::MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter("engine.chunked_runs").inc();
    metrics.counter("engine.chunks").add(stats.chunks);
    metrics.counter("engine.stream_bits").add(stats.bits);
    metrics.gauge("engine.buffer.peak_bits")
        .set(static_cast<double>(stats.peak_buffer_bits));
  }
  if (telemetry != nullptr) {
    record_run_metrics(telemetry, "engine", program, plan, config);
    probes.publish(*telemetry);
  }

  std::vector<double> measured(program.node_count(), 0.0);
  for (NodeId id = 0; id < program.node_count(); ++id) {
    measured[id] =
        n == 0 ? 0.0
               : static_cast<double>(states[id].ones) / static_cast<double>(n);
  }
  reduce_outputs(program, result, measured);
  return result;
}

// --------------------------------------------------------------- backends

/// The optimizer front (ExecConfig::optimize): rewrites the planned
/// program with opt::optimize, runs `inner` on the result, and maps the
/// per-node data back onto the caller's node ids — removed nodes get
/// empty streams, CSE-merged duplicates share the survivor's stream, and
/// output_nodes keep the original ids and order.
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

template <typename Inner>
ExecutionResult run_with_optimizer(const Program& program,
                                   const ProgramPlan& plan,
                                   const ExecConfig& config, Inner inner) {
  // Throws std::invalid_argument outside 3..32, before the analyzer or a
  // backend computes 1 << width (a 64-bit shift by >= 64 is UB).
  (void)rng::Lfsr::maximal_taps(config.width);
  if (config.analyze) analyze_or_throw(program, plan, config);
  if (!config.optimize) return inner(program, plan);
  opt::OptConfig opt_config;
  opt_config.planner.sync_depth = config.sync_depth;
  opt_config.planner.shuffle_depth = config.shuffle_depth;
  opt_config.planner.width = config.width;
  opt_config.width = config.width;
  opt_config.telemetry = config.telemetry;
  opt_config.planner.telemetry = config.telemetry;
  const opt::OptResult optimized = opt::optimize(program, plan, opt_config);
  ExecutionResult result = inner(optimized.program, optimized.plan);
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

class ReferenceBackend final : public ExecutorBackend {
 public:
  [[nodiscard]] std::string name() const override { return "reference"; }
  ExecutionResult run(const Program& program, const ProgramPlan& plan,
                      const ExecConfig& config) override {
    return run_with_optimizer(
        program, plan, config, [&](const Program& p, const ProgramPlan& pl) {
          return run_whole(p, pl, config, /*kernel_path=*/false);
        });
  }
};

class KernelBackend final : public ExecutorBackend {
 public:
  [[nodiscard]] std::string name() const override { return "kernel"; }
  ExecutionResult run(const Program& program, const ProgramPlan& plan,
                      const ExecConfig& config) override {
    return run_with_optimizer(
        program, plan, config, [&](const Program& p, const ProgramPlan& pl) {
          return run_whole(p, pl, config, /*kernel_path=*/true);
        });
  }
};

class EngineBackend final : public ExecutorBackend {
 public:
  explicit EngineBackend(engine::Session* session) : session_(session) {}
  [[nodiscard]] std::string name() const override { return "engine"; }
  ExecutionResult run(const Program& program, const ProgramPlan& plan,
                      const ExecConfig& config) override {
    return run_with_optimizer(
        program, plan, config, [&](const Program& p, const ProgramPlan& pl) {
          return run_chunked(p, pl, config, session_);
        });
  }

 private:
  engine::Session* session_;
};

}  // namespace

std::unique_ptr<ExecutorBackend> make_backend(BackendKind kind) {
  switch (kind) {
    case BackendKind::kReference:
      return std::make_unique<ReferenceBackend>();
    case BackendKind::kKernel:
      return std::make_unique<KernelBackend>();
    case BackendKind::kEngine:
      return std::make_unique<EngineBackend>(nullptr);
  }
  return nullptr;
}

std::unique_ptr<ExecutorBackend> make_engine_backend(
    engine::Session& session) {
  return std::make_unique<EngineBackend>(&session);
}

std::vector<std::uint32_t> derived_seeds(const Program& program,
                                          const ProgramPlan& plan,
                                          const ExecConfig& config) {
  std::vector<std::uint32_t> out;
  std::map<unsigned, bool> groups;
  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    if (node.kind != ProgramNode::Kind::kOp) {
      if (!groups.emplace(node.rng_group, true).second) continue;
      out.push_back(derive_seed32(config.seed, node.rng_group,
                                  Role::kGroupTrace));
      continue;
    }
    const OperatorDef& def = program.def_of(id);
    const std::uint32_t tag = node.seed_tag;
    for (unsigned slot = 0; slot < def.rng_slots; ++slot) {
      out.push_back(derive_seed32(config.seed, tag, Role::kOpPrivate, slot));
    }
    const std::vector<const PairFix*> fixes = plan.fixes_for(id);
    for (const PairFix* fix : fixes) {
      const std::uint32_t lane32 = fix_lane(*fix);
      switch (fix->fix) {
        case FixKind::kDecorrelator:
        case FixKind::kRegenerateDistinct:
          out.push_back(derive_seed32(config.seed, tag, Role::kFixAuxA, lane32));
          out.push_back(derive_seed32(config.seed, tag, Role::kFixAuxB, lane32));
          break;
        case FixKind::kDecorrelatorChain:
        case FixKind::kRegenerateShared:
        case FixKind::kRegenerateComplementary:
          out.push_back(derive_seed32(config.seed, tag, Role::kFixAuxA, lane32));
          break;
        default:
          break;  // synchronizer/desynchronizer draw no RNG
      }
    }
  }
  return out;
}

}  // namespace sc::graph
