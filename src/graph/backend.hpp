/// \file backend.hpp
/// Pluggable execution backends for registry programs.
///
/// An ExecutorBackend turns (Program, ProgramPlan, ExecConfig) into a
/// bit-true ExecutionResult.  One executor runs every backend: it builds
/// each node's state once (SNG, planned fix FSMs, evaluator), then advances
/// the nodes level by level, chunk by chunk.  The three backends are three
/// datapaths through it:
///
///  * reference — one n-bit chunk, everything bit-serial: operators and
///    planned fixes step one cycle at a time (the base OpEvaluator::process
///    and PairTransform::process, called non-virtually).  The semantics
///    oracle.
///  * kernel — one n-bit chunk through the fixes' and operators' process()
///    overrides (table-driven or word-parallel paths).
///  * engine — chunked streaming through the same overrides: node streams
///    advance one fixed-size chunk at a time with FSM/evaluator state
///    carried across chunk boundaries, so arbitrarily long streams execute
///    in O(nodes x chunk) memory (set ExecConfig::keep_streams = false);
///    optionally bound to an engine::Session whose pool fans independent
///    nodes of each topological level and whose chunk size it uses.  Each
///    run records its chunked accounting (engine.chunked_runs,
///    engine.chunks, engine.stream_bits, engine.buffer.peak_bits) into the
///    run's telemetry and, when it is a different registry, the session's.
///
/// Regeneration fixes are inherently stream-wide (they count the whole
/// operand before re-encoding), so a plan containing one runs as one n-bit
/// chunk on every backend, the engine included (on its pool, and recorded
/// as an engine run).
///
/// All three are bit-identical on the same (Program, ProgramPlan,
/// ExecConfig) — enforced by differential tests — because every random
/// decision derives from seeds.hpp's (node, role, lane) scheme and every
/// fast path is a proven-equivalent rewrite of the serial one.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/seeds.hpp"

namespace sc::engine {
class Session;
}

namespace sc::fault {
struct FaultPlan;
}

namespace sc::obs {
class Telemetry;
}

namespace sc::graph {

/// Execution parameters.
struct ExecConfig {
  std::size_t stream_length = 256;
  unsigned width = 8;          ///< SNG comparator width (3..32)
  std::uint32_t seed = 3;      ///< base seed of the derivation scheme
  unsigned sync_depth = 2;     ///< depth of inserted (de)synchronizers
  std::size_t shuffle_depth = 8;
  /// Materialize every node's stream in the result.  Set false on the
  /// engine backend to run long streams in O(chunk) memory (streams stay
  /// empty; output values are still exact reductions).
  bool keep_streams = true;
  /// Run opt::optimize as the front of every backend: the default pass
  /// pipeline (chain decorrelators, CSE, constant folding, dead-value
  /// elimination, correction sharing) rewrites the program/plan before
  /// execution.  Streams and output_nodes in the result are mapped back
  /// to the caller's node ids (removed nodes get empty streams, merged
  /// duplicates share the survivor's stream).  Off by default so existing
  /// plans execute exactly as handed in.
  bool optimize = false;
  /// Run the static analyzer (src/analysis/) over the *incoming*
  /// (program, plan) before anything executes — before opt::optimize, so
  /// findings name the caller's nodes.  Error-class diagnostics
  /// (requirement-violation, exact seed-collision) abort the run with
  /// std::runtime_error carrying the findings; warnings and notes only
  /// count into telemetry (analysis.* counters).  Off by default: the
  /// analyzer is a verification gate, not an execution dependency.
  bool analyze = false;
  /// Fault-injection campaign (src/fault/): error models applied to named
  /// stream edges and planned fix FSMs during execution, identically on
  /// every backend — edge corruption is a pure function of (fault seed,
  /// edge name, absolute bit index), so chunking cannot move it, and FSM
  /// corruption wraps the fix in a kernel-less decorator every backend
  /// steps bit-serially.  Non-owning; the plan must outlive the run.
  /// nullptr (the default) injects nothing.  With ExecConfig::optimize,
  /// faults resolve against the *optimized* program: a fault naming a
  /// value the optimizer removed (including a CSE-merged duplicate — the
  /// value lives on under the survivor's name, the duplicate's wire does
  /// not) vanishes with it, and an FSM fault on a correction-shared fix
  /// wipes every sibling consumer of the one physical circuit.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Telemetry context (src/obs/): metrics counters, RAII tracing spans
  /// (planner / optimizer passes / per-node and per-chunk execution), and
  /// stream-health probes are recorded into it during the run — on every
  /// backend, without changing a single output bit (telemetry neutrality
  /// is enforced by obs_test and the golden corpus).  Non-owning; must
  /// outlive the run.  nullptr (the default) falls back to the
  /// process-wide SC_TRACE / SC_METRICS env context (obs::Telemetry::
  /// from_env) and, with neither set, records nothing and costs one
  /// predictable branch per instrumentation site.
  obs::Telemetry* telemetry = nullptr;
};

/// Per-output accuracy and the overall summary.
struct ExecutionResult {
  std::vector<NodeId> output_nodes;
  std::vector<double> values;      ///< measured SC values
  std::vector<double> exact;       ///< float semantics
  std::vector<double> abs_errors;  ///< |measured - exact|
  double mean_abs_error = 0.0;

  /// The streams of every node (index = NodeId), for inspection.  Empty
  /// when the run had keep_streams = false.
  std::vector<Bitstream> streams;
};

/// Uniform execution interface over a planned program.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual ExecutionResult run(const Program& program, const ProgramPlan& plan,
                              const ExecConfig& config) = 0;
};

enum class BackendKind { kReference, kKernel, kEngine };

/// Creates a backend.  kEngine made this way runs unthreaded with the
/// default chunk size; bind a session with make_engine_backend for pooled
/// execution.
std::unique_ptr<ExecutorBackend> make_backend(BackendKind kind);

/// Engine backend bound to a session: uses its chunk size, fans the nodes
/// of each topological level across its pool, and records chunked-run
/// stats into the session's telemetry too.  The session must outlive the
/// backend.  run() may be called from inside one of the same session's
/// jobs: there the fan-out runs inline (ThreadPool::for_each).
std::unique_ptr<ExecutorBackend> make_engine_backend(engine::Session& session);

/// One generator a run constructs: an rng::Lfsr of the run's width,
/// seeded with seed32(ExecConfig::seed) and emitting through `rotation`.
struct SeedSite {
  seeds::Role role = seeds::Role::kGroupTrace;
  /// The RNG group id for kGroupTrace, the op node's seed_tag otherwise.
  std::uint32_t key = 0;
  /// Private slot index (kOpPrivate) or the fix's operand-pair lane
  /// (kFixAux*); 0 for traces.
  std::uint32_t lane = 0;
  unsigned rotation = 0;  ///< rng::Lfsr output rotation
  /// The op node for private slots and fix RNGs, the first node of the
  /// group for traces.
  NodeId node = kInvalidNode;
  /// The fix drawing it (kFixAux* only), in the plan the list was made
  /// from.
  const PairFix* fix = nullptr;

  /// The 32-bit fold the Lfsr is seeded with (seeds::derive_seed32,
  /// including its 0 -> 1 remap).  Seed audits compare these folds, not
  /// the 64-bit mixes: the mixes are distinct by construction, so
  /// auditing them would be vacuous, while the fold is where a birthday
  /// or remap collision could silently run two "independent" generators
  /// on one schedule.
  [[nodiscard]] std::uint32_t seed32(std::uint64_t base) const {
    return seeds::derive_seed32(base, key, role, lane);
  }
};

/// The aux generators one planned fix draws, keyed by its op node's
/// `seed_tag` (not its id, so a rewrite that only drops or merges other
/// nodes draws identical sequences): two for a decorrelator (the second
/// with output rotation 3) and a regen-distinct, one for a chain link,
/// regen-shared and regen-complementary, none for the (de)synchronizers.
std::vector<SeedSite> fix_seed_sites(const PairFix& fix,
                                     std::uint32_t seed_tag);

/// Every generator a run of `plan` on `program` constructs, in
/// deterministic order: per node, its group's trace (first node of the
/// group only), then an op's private slots (OperatorDef::rng_slots), then
/// its fixes' fix_seed_sites, from which the executor builds each fix's
/// generators.  The seed audit (analysis::seed_provenance) and the
/// analyzer's provenance read this list.  Each generator draws one value
/// per cycle, so size() * stream_length is the run's backend.rng_draws
/// metric.
std::vector<SeedSite> seed_sites(const Program& program,
                                 const ProgramPlan& plan);

}  // namespace sc::graph
