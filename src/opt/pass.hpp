/// \file pass.hpp
/// The program optimizer's passes and the contract they share.
///
/// A pass reads a graph::Program and its ProgramPlan and may propose a
/// Rewrite: a new program with its node remap, or a new plan over the same
/// program.  opt::optimize (optimize.hpp) runs the passes in the order
/// below, honoring OptConfig's toggles, and guards every proposal with the
/// hw::cost model: it keeps one only when it does not raise the modeled
/// area of the full design (operator cells + SNG bank + inserted
/// correction hardware) and leaves every per-operand-pair Requirement
/// either provably satisfied, fixed, chain-covered (see plan_covers), or —
/// under Strategy::kNone — recorded as a violation.  A rejected proposal is
/// dropped; the passes never touch their inputs, so a buggy or
/// unprofitable pass can never corrupt a program.
///
/// Six passes ship, in this order (the sixth is opt-in):
///   1. constant folding        — ops whose inputs are all constants
///                                become constants (reseeded),
///   2. common-subexpression    — duplicate registry ops merge when their
///      elimination               name, operand identity, and RNG-slot
///                                seeds agree and no planned fix in front
///                                of them draws RNG (bit-identical),
///   3. dead-value elimination  — nodes not reaching any output are
///                                dropped (bit-identical),
///   4. chain decorrelators     — k-way same-source copy groups get the
///                                paper's k-1 decorrelator chain instead
///                                of the planner's k(k-1)/2 pairwise
///                                insertions (reseeded),
///   5. correction sharing      — duplicate RNG-free synchronizer /
///                                desynchronizer insertions feeding
///                                sibling ops are merged into one charged
///                                circuit (bit-identical),
///   6. dead-fix elimination    — fixes the static analyzer proves
///      (opt-in)                  redundant are dropped (reseeded; see
///                                OptConfig::dead_fix_elimination).
/// "Bit-identical" passes preserve every surviving node's streams exactly
/// (ProgramNode::seed_tag keeps RNG identity stable across rewrites);
/// "reseeded" passes preserve exact semantics and are statistically
/// equivalent.

#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "hw/cost.hpp"

namespace sc::opt {

/// Optimizer knobs.  `planner` must match the PlannerConfig the incoming
/// plan was made with (it sizes replanned / re-priced fix hardware);
/// `cost` is the operating point of the area guidance; `width` prices the
/// base netlist's SNG bank.
struct OptConfig {
  graph::PlannerConfig planner;
  hw::CostConfig cost;
  unsigned width = 8;
  /// Telemetry context (src/obs/): opt::optimize records one span per
  /// pass ("opt.<pass>": accepted, rewrite counts, area delta) and opt.*
  /// counters into it.  Non-owning, nullptr = env fallback, exactly as
  /// ExecConfig::telemetry.  Replans triggered by program rewrites also
  /// carry it (config.planner is forwarded with the same pointer).
  obs::Telemetry* telemetry = nullptr;

  // Per-pass toggles (all on by default).
  bool constant_folding = true;
  bool cse = true;
  bool dead_value_elimination = true;
  bool chain_decorrelators = true;
  bool correction_sharing = true;
  /// Drop inserted fixes the static analyzer (src/analysis/) proves
  /// redundant — the pair stays in its required regime without the
  /// circuit, either because a remaining decorrelator of the same op
  /// already shuffles one of its slots or because the analyzer proved the
  /// raw operand pair's SCC class outright (the relation is then refined
  /// to record the proof).  kNegative pairs are never dropped (Relation
  /// cannot express a proven anticorrelation, so plan_covers could not
  /// re-check the drop); those stay analyzer warnings.  Off by default:
  /// dropping a fix changes the fixed operands' streams (exact semantics
  /// and pair regimes are preserved, bits are not).
  bool dead_fix_elimination = false;

  // ---- multi-objective Pareto budgets -----------------------------------
  // All infinite by default, which reproduces the legacy area-only gate
  // exactly.  Setting *any* budget switches the gate to Pareto mode: a
  // rewrite is kept when it is safe, improves at least one objective
  // (area, predicted error, fragility), and worsens no *budgeted*
  // objective beyond its budget.  The canonical tension is the chain
  // pass: it lowers area but raises both predicted error
  // (single-shuffle residual, error_model.hpp) and fragility (shared
  // upstream shuffle state) — under a tight error_budget it must be
  // dropped, under a loose one kept.

  /// Modeled full-design area ceiling in um2.
  double area_budget_um2 = std::numeric_limits<double>::infinity();
  /// Ceiling on analysis::plan_error's worst predicted per-output
  /// |error| bound, evaluated at error_stream_length bits.
  double error_budget = std::numeric_limits<double>::infinity();
  /// Ceiling on analysis::plan_fragility's summed per-fix score.
  double fragility_budget = std::numeric_limits<double>::infinity();
  /// Stream length the error budget's predicted bound is evaluated at
  /// (longer streams shrink the stochastic half of the bound).
  std::size_t error_stream_length = 4096;

  /// True when any budget is finite (the gate runs in Pareto mode and
  /// pays for the error/fragility analyses per pass).
  [[nodiscard]] bool budgeted() const {
    return area_budget_um2 < std::numeric_limits<double>::infinity() ||
           error_budget < std::numeric_limits<double>::infinity() ||
           fragility_budget < std::numeric_limits<double>::infinity();
  }

  /// Only the passes that never reseed (CSE, DVE, correction sharing):
  /// optimized programs stay bit-identical to unoptimized ones.
  static OptConfig bit_identical() {
    OptConfig config;
    config.constant_folding = false;
    config.chain_decorrelators = false;
    return config;
  }
};

/// Diff summary of one pass application.
struct PassReport {
  std::string pass;
  bool changed = false;   ///< the pass found a rewrite
  bool accepted = false;  ///< the rewrite survived the cost/safety gate
  std::size_t nodes_removed = 0;
  std::size_t nodes_folded = 0;
  /// Correction circuits no longer charged: fixes dropped by chaining plus
  /// fixes marked shared (PairFix::shared_with).
  std::size_t corrections_saved = 0;
  double area_delta_um2 = 0.0;  ///< modeled-area change (0 when rejected)
  /// Predicted worst-output-error and fragility changes (0 when rejected
  /// or when the gate runs un-budgeted and never evaluates them).
  double error_delta = 0.0;
  double fragility_delta = 0.0;
  std::string detail;           ///< human-readable specifics
};

std::string to_string(const PassReport& report);

/// A program pass's proposal: the rewritten program and the node remap
/// (old id -> new id, graph::kInvalidNode for removed nodes).  The gate
/// replans the program under the incoming plan's strategy.
struct ProgramRewrite {
  graph::Program program;
  std::vector<graph::NodeId> remap;
};

/// What a pass proposes: a new program, or a new plan over the program it
/// was given.  Plan passes run after the program passes, whose accepted
/// rewrites replace the plan with a fresh one.
using Rewrite = std::variant<ProgramRewrite, graph::ProgramPlan>;

/// The pass contract: a pass reads the program and plan and returns its
/// proposal, or nothing when it finds no rewrite.  It fills `report`'s
/// nodes_removed, nodes_folded, corrections_saved and detail for the
/// proposal it returns, and leaves them zero when it returns nothing;
/// opt::optimize fills the rest.
using PassFn = std::optional<Rewrite>(const graph::Program& program,
                                      const graph::ProgramPlan& plan,
                                      const OptConfig& config,
                                      PassReport& report);

// ------------------------------------------------- the passes, in order

PassFn fold_constants;               ///< "constant-fold"
PassFn merge_common_subexpressions;  ///< "cse"
PassFn drop_dead_values;             ///< "dve"
PassFn chain_decorrelators;          ///< "chain-decorrelators"
PassFn share_corrections;            ///< "share-corrections"
PassFn drop_dead_fixes;              ///< "drop-dead-fixes"

// --------------------------------------------------------------- helpers

/// Modeled area of the full design: base netlist (operator cells + SNG
/// bank at config.width) plus the plan's correction overhead, evaluated at
/// config.cost.
double modeled_area(const graph::Program& program,
                    const graph::ProgramPlan& plan, const OptConfig& config);

/// True when every examined operand pair of the plan is provably
/// satisfied, carries a fix, is covered by a decorrelator chain (a slot
/// re-shuffled by an independent schedule is uncorrelated with every other
/// operand, so a kUncorrelated pair is met when either slot appears in a
/// kDecorrelator fix of the same op), or is a recorded violation.  The
/// safety half of opt::optimize's gate.
bool plan_covers(const graph::ProgramPlan& plan);

}  // namespace sc::opt
