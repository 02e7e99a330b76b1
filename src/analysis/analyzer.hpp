/// \file analyzer.hpp
/// Static correlation & seed-provenance analysis for planned programs.
///
/// The paper's premise is that SC correctness is a *static* property of
/// the dataflow graph: which operand pairs need SCC +1 / 0 / -1 streams
/// (Fig. 2), and whether the design delivers them.  The planner answers
/// half of that — it inserts fixes where its lineage analysis cannot
/// prove a requirement — but it reasons about RNG *group ids* and never
/// looks back at what its own insertions do to neighbouring pairs, what
/// the seed derivation actually lands on after width-masking, or what a
/// rewrite left behind.  This analyzer closes the loop with a
/// compiler-style semantic pass over (Program, ProgramPlan):
///
///  1. **Seed provenance** (provenance.hpp): every derived seed with its
///     effective (width-masked) generator identity; exact and masked
///     collisions become `seed-collision` diagnostics.
///  2. **Correlation dataflow**: an SCC-class lattice (correlated /
///     independent / anticorrelated / unknown) propagated through the
///     graph.  Three proof techniques stack:
///       * threshold-generator propagation — inputs are threshold
///         encodings of their group trace, and operators declared
///         CorrelationEffect::kPreserving (monotone AND/OR gates) keep
///         that shape, so same-trace pairs are SCC = +1 *exactly*;
///         kInverting (NOT) flips the comparison direction, giving
///         SCC = -1 exactly;
///       * value numbering — structurally identical subcomputations
///         (the CSE criterion) produce bit-identical streams;
///       * generator-set independence — two streams are independent when
///         their effective-generator sets are disjoint (group ids are
///         not enough: masked seed collisions merge groups).
///     Planned fixes then transform the classes slot-wise (a shuffle
///     decorrelates against everything; sync/desync/regeneration pair
///     their two outputs), so every operand pair gets a predicted class
///     *at the gate*.
///  3. **Typed diagnostics** with stable ids (Diagnostic::id):
///     requirement-violation, seed-collision, redundant-fix,
///     chain-reconvergence, dead-rng, dead-value, constant-foldable.
///  4. **Static fragility**: per-fix state_bits x blast x persistence
///     scores — the decorrelator-chain reconvergence structure
///     (BENCH_fault: one SEU in a chain link poisons every downstream
///     copy, recovery_depth ~ stream length, vs 2-5 cycles for
///     sync/desync) becomes a number the optimizer's Pareto gate budgets
///     against (OptConfig::fragility_budget) and opt::assess reports
///     (OptAssessment::fragility_before/after).
///
/// Validation: analysis_property_test checks predicted classes against
/// measured bitstream::scc on random programs (all three backends) and
/// runs the planner differentially — every planner violation must be an
/// analyzer error unless the analyzer *proved* a satisfying class, and
/// those proofs are themselves measured.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/provenance.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace sc::obs {
class Telemetry;
}

namespace sc::analysis {

/// Predicted SCC regime of a stream pair (the lattice of the dataflow
/// analysis; kUnknown is the top element).
enum class SccClass {
  kCorrelated,      ///< provably SCC = +1
  kIndependent,     ///< provably SCC ~ 0 (disjoint generator sets)
  kAnticorrelated,  ///< provably SCC = -1
  kUnknown,
};

std::string to_string(SccClass value);

/// True when a pair of `value`-class streams provably meets `requirement`
/// (the analyzer's counterpart of graph::requirement_satisfied — unlike
/// the planner's Relation, the lattice can prove kNegative).
bool class_satisfies(graph::Requirement requirement, SccClass value);

enum class Severity { kError, kWarning, kNote };

std::string to_string(Severity severity);

/// One finding.  `id` is the stable machine-readable diagnostic class —
/// tests and CI match on it, so ids are append-only:
///   requirement-violation  (error)    pair provably / not provably in its
///                                     required regime at the gate
///   seed-collision         (error when two derived seeds run identical
///                          generators, warning for structurally related
///                          masked aliases)
///   redundant-fix          (warning)  inserted circuit whose removal
///                                     leaves every pair of its op satisfied
///   chain-reconvergence    (warning)  decorrelator chain sharing upstream
///                                     state across >= 2 downstream copies
///   dead-rng               (warning)  generator drawn only by dead values
///   dead-value             (note)     node unreachable from any output
///   constant-foldable      (note)     all-constant subgraph not yet folded
/// plus the accuracy family appended by the error model
/// (error_model.hpp's append_accuracy_diagnostics): precision-loss,
/// saturation-risk, correlation-bias, insufficient-stream-length,
/// chain-unrecoverable — all warnings.
struct Diagnostic {
  std::string id;
  Severity severity = Severity::kNote;
  graph::NodeId node = graph::kInvalidNode;  ///< primary node, if any
  std::string name;                          ///< node name, if any
  std::string message;
};

/// Predicted regime of one examined operand pair.
struct PairPrediction {
  graph::NodeId op_node = 0;
  unsigned operand_a = 0;
  unsigned operand_b = 1;
  graph::Requirement requirement = graph::Requirement::kAgnostic;
  graph::FixKind fix = graph::FixKind::kNone;
  /// Class of the two raw operand streams (what the property test checks
  /// against measured SCC of the node streams).
  SccClass operands = SccClass::kUnknown;
  /// Class the operator actually sees after every planned fix of its node
  /// ran (slot-wise transform semantics).
  SccClass at_gate = SccClass::kUnknown;
  bool satisfied = false;
};

/// An inserted fix whose removal keeps every pair of its op satisfied.
struct RedundantFix {
  std::size_t fix_index = 0;  ///< into ProgramPlan::fixes
  graph::NodeId op_node = 0;
  unsigned operand_a = 0;
  unsigned operand_b = 1;
  /// Class the fix's own pair would have without it (the proof that the
  /// circuit buys nothing).
  SccClass without_fix = SccClass::kUnknown;
};

/// Static fragility of one inserted circuit: how much persistent state it
/// holds, how many operand streams one upset of that state reaches, and
/// for how many cycles the disturbance persists (fault::sweep's
/// recovery-depth measurements are the empirical ground truth: shuffle
/// buffers never recover within a stream, sync/desync recover in
/// O(depth) cycles).
struct FixFragility {
  std::size_t fix_index = 0;
  graph::NodeId op_node = 0;
  graph::FixKind kind = graph::FixKind::kNone;
  double state_bits = 0.0;
  double blast = 1.0;        ///< downstream streams one upset poisons
  double persistence = 0.0;  ///< cycles the disturbance persists
  double score = 0.0;        ///< state_bits * blast * persistence
};

/// Analyzer knobs — mirrors the execution parameters that shape seeds and
/// inserted circuits.  Build one from an ExecConfig with from().
struct AnalyzerConfig {
  std::size_t stream_length = 256;
  unsigned width = 8;
  std::uint32_t seed = 3;
  unsigned sync_depth = 2;
  std::size_t shuffle_depth = 8;
  /// Requested output RMSE for the insufficient-stream-length check
  /// (error_model.hpp); 0 disables it.  sc_lint's --target-rmse.
  double target_rmse = 0.0;
  /// Telemetry context (src/obs/): analyze() records an
  /// "analysis.analyze" span and analysis.* counters.  Non-owning,
  /// nullptr = env fallback, exactly as ExecConfig::telemetry.
  obs::Telemetry* telemetry = nullptr;

  static AnalyzerConfig from(const graph::ExecConfig& config);
};

/// Everything analyze() proved about one (program, plan).
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  std::vector<PairPrediction> pairs;
  std::vector<RedundantFix> redundant_fixes;
  std::vector<FixFragility> fix_fragility;
  /// Sum of fix fragility scores (the optimizer's static fragility input).
  double fragility = 0.0;
  /// Worst predicted per-output |error| bound at config.stream_length
  /// (error_model.hpp; filled by analyze(), 0 on facts-only runs).
  double worst_error_bound = 0.0;
  SeedReport seeds;

  [[nodiscard]] std::size_t count(Severity severity) const;
  [[nodiscard]] bool has_errors() const { return count(Severity::kError) > 0; }

  /// Predicted SCC class between the *raw* streams of two program nodes
  /// (before any fix of a consuming op) — the quantity measured by
  /// bitstream::scc over ExecutionResult::streams.
  [[nodiscard]] SccClass node_class(graph::NodeId a, graph::NodeId b) const;

  /// Human-readable listing (one line per diagnostic plus a summary).
  [[nodiscard]] std::string to_text() const;
  /// Machine-readable JSON (the sc_lint --json schema; see
  /// tools/validate_lint.py): source, summary counts, diagnostics, pair
  /// predictions, fragility.
  [[nodiscard]] std::string to_json(const std::string& source = "") const;

  // ------------------------------------------------------------ internals
  /// Per-node abstract state of the dataflow analysis, exposed so tests
  /// and the optimizer can interrogate the proofs behind the verdicts.
  struct NodeFacts {
    /// Effective generators in the node's randomness cone (sorted unique).
    std::vector<GeneratorId> provenance;
    /// Threshold-generator claim: the stream is a threshold encoding of
    /// this generator's trace ([trace < level], or [trace >= level] when
    /// inverted) — exact SCC +1 / -1 against same-generator peers.
    bool has_tgen = false;
    GeneratorId tgen;
    bool tgen_inverted = false;
    std::uint32_t value_number = 0;  ///< equal number => identical stream
    bool live = false;               ///< reaches some output
    bool constant_only = false;      ///< every transitive leaf is constant
  };
  std::vector<NodeFacts> facts;
};

/// Runs the full analysis.  Pure — no program/plan mutation, no
/// execution; cost is O(nodes + pairs + fixes^2 per node).
AnalysisReport analyze(const graph::Program& program,
                       const graph::ProgramPlan& plan,
                       const AnalyzerConfig& config = {});

/// Just the fragility total of a plan (the opt:: hook): runs the
/// fragility pass alone, without the correlation dataflow or diagnostics.
double plan_fragility(const graph::Program& program,
                      const graph::ProgramPlan& plan,
                      const AnalyzerConfig& config = {});

/// Facts-only analysis: node facts, pair predictions, and fragility, no
/// diagnostics or seed report.  The error model's substrate
/// (error_model.hpp) — lets plan_accuracy run the dataflow analysis
/// without rendering, and analyze() reuse one report for both.
AnalysisReport analyze_facts(const graph::Program& program,
                             const graph::ProgramPlan& plan,
                             const AnalyzerConfig& config = {});

}  // namespace sc::analysis
