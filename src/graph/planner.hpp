/// \file planner.hpp
/// Correlation analysis and manipulator insertion for registry programs.
///
/// Analysis: every stream carries a *lineage* - the set of RNG groups its
/// bits derive from.  Two streams are classified
///   kPositive    if they are the same node, or inputs of one RNG group
///                (shared trace),
///   kIndependent if their lineages are disjoint,
///   kUnknown     otherwise (shared ancestry through ops - the paper's
///                "computation-induced correlation" whose exact level "is
///                not well-understood", §II-B).
/// The planner is conservative: any operand *pair* whose requirement (from
/// the operator registry, possibly per-pair) is not provably met gets a
/// fix.  n-ary operators are planned pairwise, so e.g. a Bernstein unit
/// fed n copies of one stream receives a decorrelator per copy pair - the
/// registry makes the planner work on operators it has never seen.  Note
/// the quadratic cost: pairwise insertion charges n(n-1)/2 units where
/// the paper's decorrelator chain over a same-source copy group needs
/// n-1; the optimizer's chain pass (src/opt/) rewrites such groups down
/// to the linear chain after planning — run opt::optimize (or set
/// ExecConfig::optimize) to get the paper's cost.
///
/// Strategies mirror the paper's §IV comparison:
///   kNone         - insert nothing; violations are recorded (the paper's
///                   "SC No Manipulation" design)
///   kRegeneration - S/D + D/S both operands (shared / distinct /
///                   complementary RNG for +1 / 0 / -1)
///   kManipulation - synchronizer / decorrelator / desynchronizer in-stream
/// Every plan carries the inserted hardware as a netlist so strategies can
/// be compared on cost as well as accuracy.

#pragma once

#include <string>
#include <vector>

#include "graph/program.hpp"
#include "hw/netlist.hpp"

namespace sc::obs {
class Telemetry;
}

namespace sc::graph {

/// Provable correlation relation between two streams.
enum class Relation { kPositive, kIndependent, kUnknown };

std::string to_string(Relation relation);

/// Classifies the relation between two program nodes from lineage analysis.
Relation classify(const Program& program, NodeId a, NodeId b);

/// Insertion strategy (see file comment).
enum class Strategy { kNone, kRegeneration, kManipulation };

std::string to_string(Strategy strategy);

/// Fix inserted in front of one operand pair.
enum class FixKind {
  kNone,
  kSynchronizer,             ///< drive SCC -> +1 in-stream
  kDesynchronizer,           ///< drive SCC -> -1 in-stream
  kDecorrelator,             ///< drive SCC -> 0 in-stream
  /// One link of the paper's series decorrelator chain (§III-C): the
  /// second operand becomes shuffle(first operand), composing shuffles
  /// along a same-source copy group with one single-buffer circuit per
  /// link.  Emitted by the optimizer's chain pass (never by the planner);
  /// only valid when both operands carry the same stream.
  kDecorrelatorChain,
  kRegenerateShared,         ///< S/D + D/S both operands, one shared RNG
  kRegenerateDistinct,       ///< S/D + D/S, independent RNGs
  kRegenerateComplementary,  ///< S/D + D/S, complementary RNG pair
};

std::string to_string(FixKind kind);

/// True when `kind` regenerates (S/D + D/S) rather than manipulating
/// in-stream.  Regeneration is inherently stream-wide - it counts the
/// whole operand before re-encoding - which is why every backend, the
/// chunked engine included, runs such plans as one stream-long chunk.
bool is_regenerating(FixKind kind);

/// True when `kind` draws auxiliary RNG sequences (seeded per op node /
/// lane): decorrelators, chain links, and every regeneration kind.  An op
/// whose plan carries such a fix does not produce a stream that is a
/// deterministic function of (operator, operands) alone — which is why
/// the optimizer's CSE refuses to merge it.
bool fix_draws_rng(FixKind kind);

/// Planned fix for one operand pair of one op node.
struct PairFix {
  NodeId op_node = 0;
  unsigned operand_a = 0;  ///< first operand index (a < b)
  unsigned operand_b = 1;  ///< second operand index
  Requirement requirement = Requirement::kAgnostic;
  Relation relation = Relation::kUnknown;
  FixKind fix = FixKind::kNone;
  /// Index (into ProgramPlan::fixes) of the representative fix this one
  /// mirrors, or -1 when it is its own circuit.  The optimizer's sharing
  /// pass marks RNG-free fixes (synchronizer / desynchronizer) whose
  /// operand streams equal another fix's: in hardware one circuit fans out
  /// to every consumer, so shared fixes charge no extra cells — and since
  /// the mirrored FSM is deterministic on identical inputs, backends may
  /// keep applying the transform per consumer with bit-identical results.
  std::int32_t shared_with = -1;
};

/// Planner knobs.  `sync_depth` configures inserted synchronizers /
/// desynchronizers; `shuffle_depth` the inserted decorrelators; `width`
/// the regenerator counters and comparators.
struct PlannerConfig {
  unsigned sync_depth = 2;
  std::size_t shuffle_depth = 8;
  unsigned width = 8;
  /// Telemetry context (src/obs/): plan_program records a
  /// "planner.plan_program" span (strategy, fixes, violations) and
  /// planner.* counters into it.  Non-owning, nullptr = env fallback,
  /// exactly as ExecConfig::telemetry.
  obs::Telemetry* telemetry = nullptr;
};

/// Full insertion plan for a Program under one strategy: one PairFix per
/// examined operand pair (requirement != agnostic), in (node, pair) order.
struct ProgramPlan {
  Strategy strategy = Strategy::kNone;
  std::vector<PairFix> fixes;
  std::vector<NodeId> violations;  ///< ops left unsatisfied (kNone only)
  hw::Netlist overhead;            ///< all inserted hardware
  std::size_t inserted_units = 0;  ///< manipulators or regenerators

  /// Fixes planned for one op node, in operand-pair order.
  [[nodiscard]] std::vector<const PairFix*> fixes_for(NodeId op_node) const;
  /// True when any planned fix regenerates (see is_regenerating).
  [[nodiscard]] bool has_regeneration() const;
};

/// Computes the insertion plan for a registry program.
ProgramPlan plan_program(const Program& program, Strategy strategy,
                         const PlannerConfig& config = {});

/// Sets plan.overhead / plan.inserted_units from plan.fixes, charging
/// each non-kNone, non-shared fix's fix_netlist once.  plan_program
/// prices its plan with it, and the optimizer re-prices each rewrite.
void price_plan(ProgramPlan& plan, const PlannerConfig& config);

/// True when `relation` provably meets `requirement` (the planner's
/// satisfaction rule, shared with the optimizer's safety verifier).
bool requirement_satisfied(Requirement requirement, Relation relation);

/// Inserted hardware of one fix kind under a PlannerConfig — the unit
/// price_plan charges per planned fix.
hw::Netlist fix_netlist(FixKind kind, const PlannerConfig& config);

}  // namespace sc::graph
