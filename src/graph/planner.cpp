#include "graph/planner.hpp"

#include <set>

#include "hw/designs.hpp"
#include "obs/telemetry.hpp"

namespace sc::graph {
namespace {

/// Lineages (set of RNG groups) of every node, one topological pass.
std::vector<std::set<unsigned>> lineages(const Program& program) {
  std::vector<std::set<unsigned>> result(program.node_count());
  for (NodeId id = 0; id < program.node_count(); ++id) {
    const ProgramNode& node = program.node(id);
    if (node.kind != ProgramNode::Kind::kOp) {
      result[id].insert(node.rng_group);
      continue;
    }
    for (NodeId operand : node.operands) {
      result[id].insert(result[operand].begin(), result[operand].end());
    }
  }
  return result;
}

bool disjoint(const std::set<unsigned>& a, const std::set<unsigned>& b) {
  for (unsigned group : a) {
    if (b.count(group) != 0) return false;
  }
  return true;
}

Relation classify_with(const Program& program,
                       const std::vector<std::set<unsigned>>& lineage,
                       NodeId a, NodeId b) {
  if (a == b) return Relation::kPositive;  // one stream is its own SCC=+1 pair
  const ProgramNode& na = program.node(a);
  const ProgramNode& nb = program.node(b);
  if (na.kind != ProgramNode::Kind::kOp && nb.kind != ProgramNode::Kind::kOp &&
      na.rng_group == nb.rng_group) {
    return Relation::kPositive;
  }
  return disjoint(lineage[a], lineage[b]) ? Relation::kIndependent
                                          : Relation::kUnknown;
}

FixKind fix_for_requirement(Requirement requirement, Strategy strategy) {
  if (strategy == Strategy::kManipulation) {
    switch (requirement) {
      case Requirement::kPositive:
        return FixKind::kSynchronizer;
      case Requirement::kNegative:
        return FixKind::kDesynchronizer;
      case Requirement::kUncorrelated:
        return FixKind::kDecorrelator;
      case Requirement::kAgnostic:
        return FixKind::kNone;
    }
  }
  if (strategy == Strategy::kRegeneration) {
    switch (requirement) {
      case Requirement::kPositive:
        return FixKind::kRegenerateShared;
      case Requirement::kNegative:
        return FixKind::kRegenerateComplementary;
      case Requirement::kUncorrelated:
        return FixKind::kRegenerateDistinct;
      case Requirement::kAgnostic:
        return FixKind::kNone;
    }
  }
  return FixKind::kNone;
}

}  // namespace

bool requirement_satisfied(Requirement requirement, Relation relation) {
  switch (requirement) {
    case Requirement::kAgnostic:
      return true;
    case Requirement::kUncorrelated:
      return relation == Relation::kIndependent;
    case Requirement::kPositive:
      return relation == Relation::kPositive;
    case Requirement::kNegative:
      // Generation never proves negative correlation; always needs a fix.
      return false;
  }
  return false;
}

hw::Netlist fix_netlist(FixKind kind, const PlannerConfig& config) {
  switch (kind) {
    case FixKind::kNone:
      return hw::Netlist{};
    case FixKind::kSynchronizer:
      return hw::synchronizer_netlist(config.sync_depth);
    case FixKind::kDesynchronizer:
      return hw::desynchronizer_netlist(config.sync_depth);
    case FixKind::kDecorrelator:
      // Two shuffle buffers; aux RNGs amortized across insertions, charge
      // one LFSR per decorrelator as a conservative middle ground.
      return hw::decorrelator_netlist(config.shuffle_depth) +
             hw::lfsr_netlist(config.width);
    case FixKind::kDecorrelatorChain:
      // One shuffle buffer per chain link (the X side passes through).
      return hw::shuffle_buffer_netlist(config.shuffle_depth) +
             hw::lfsr_netlist(config.width);
    case FixKind::kRegenerateShared:
    case FixKind::kRegenerateDistinct:
    case FixKind::kRegenerateComplementary:
      // Both operands get an S/D + D/S unit; one RNG charged per fix
      // (shared) - distinct needs a second.
      return hw::regenerator_netlist(config.width) * 2 +
             hw::lfsr_netlist(config.width) *
                 (kind == FixKind::kRegenerateDistinct ? 2 : 1);
  }
  return hw::Netlist{};
}

std::string to_string(Relation relation) {
  switch (relation) {
    case Relation::kPositive:
      return "positive";
    case Relation::kIndependent:
      return "independent";
    case Relation::kUnknown:
      return "unknown";
  }
  return "?";
}

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNone:
      return "no-manipulation";
    case Strategy::kRegeneration:
      return "regeneration";
    case Strategy::kManipulation:
      return "manipulation";
  }
  return "?";
}

std::string to_string(FixKind kind) {
  switch (kind) {
    case FixKind::kNone:
      return "none";
    case FixKind::kSynchronizer:
      return "synchronizer";
    case FixKind::kDesynchronizer:
      return "desynchronizer";
    case FixKind::kDecorrelator:
      return "decorrelator";
    case FixKind::kDecorrelatorChain:
      return "decorrelator-chain";
    case FixKind::kRegenerateShared:
      return "regen-shared";
    case FixKind::kRegenerateDistinct:
      return "regen-distinct";
    case FixKind::kRegenerateComplementary:
      return "regen-complementary";
  }
  return "?";
}

bool is_regenerating(FixKind kind) {
  return kind == FixKind::kRegenerateShared ||
         kind == FixKind::kRegenerateDistinct ||
         kind == FixKind::kRegenerateComplementary;
}

bool fix_draws_rng(FixKind kind) {
  return kind == FixKind::kDecorrelator ||
         kind == FixKind::kDecorrelatorChain || is_regenerating(kind);
}

Relation classify(const Program& program, NodeId a, NodeId b) {
  return classify_with(program, lineages(program), a, b);
}

std::vector<const PairFix*> ProgramPlan::fixes_for(NodeId op_node) const {
  std::vector<const PairFix*> result;
  for (const PairFix& fix : fixes) {
    if (fix.op_node == op_node && fix.fix != FixKind::kNone) {
      result.push_back(&fix);
    }
  }
  return result;
}

bool ProgramPlan::has_regeneration() const {
  for (const PairFix& fix : fixes) {
    if (is_regenerating(fix.fix)) return true;
  }
  return false;
}

void price_plan(ProgramPlan& plan, const PlannerConfig& config) {
  plan.overhead =
      hw::Netlist("insertion-overhead(" + to_string(plan.strategy) + ")");
  plan.inserted_units = 0;
  for (const PairFix& fix : plan.fixes) {
    if (fix.fix == FixKind::kNone || fix.shared_with >= 0) continue;
    plan.overhead += fix_netlist(fix.fix, config);
    ++plan.inserted_units;
  }
}

ProgramPlan plan_program(const Program& program, Strategy strategy,
                         const PlannerConfig& config) {
  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Span span(obs::tracer_of(telemetry), "planner.plan_program",
                 "planner");
  span.arg_str("strategy", to_string(strategy));
  span.arg("nodes", static_cast<std::uint64_t>(program.node_count()));
  ProgramPlan plan;
  plan.strategy = strategy;

  const std::vector<std::set<unsigned>> lineage = lineages(program);

  for (NodeId op_node : program.op_nodes()) {
    const ProgramNode& node = program.node(op_node);
    const OperatorDef& def = program.def_of(op_node);
    bool violated = false;
    for (unsigned a = 0; a < node.operands.size(); ++a) {
      for (unsigned b = a + 1; b < node.operands.size(); ++b) {
        PairFix fix;
        fix.op_node = op_node;
        fix.operand_a = a;
        fix.operand_b = b;
        fix.requirement = def.requirement_between(a, b);
        if (fix.requirement == Requirement::kAgnostic) continue;
        fix.relation = classify_with(program, lineage, node.operands[a],
                                     node.operands[b]);
        if (!requirement_satisfied(fix.requirement, fix.relation)) {
          fix.fix = fix_for_requirement(fix.requirement, strategy);
          violated |= fix.fix == FixKind::kNone;
        }
        plan.fixes.push_back(fix);
      }
    }
    if (violated) plan.violations.push_back(op_node);
  }
  price_plan(plan, config);
  span.arg("fixes", static_cast<std::uint64_t>(plan.fixes.size()));
  span.arg("inserted_units", static_cast<std::uint64_t>(plan.inserted_units));
  span.arg("violations", static_cast<std::uint64_t>(plan.violations.size()));
  if (telemetry != nullptr) {
    obs::MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter("planner.plans").inc();
    metrics.counter("planner.pairs_examined").add(plan.fixes.size());
    metrics.counter("planner.fixes_inserted").add(plan.inserted_units);
    metrics.counter("planner.violations").add(plan.violations.size());
  }
  return plan;
}

}  // namespace sc::graph
