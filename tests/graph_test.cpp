/// Tests for the correlation-aware dataflow module: lineage classification,
/// insertion planning under all three strategies, bit-true execution, and
/// the end-to-end accuracy/cost ordering the paper's §IV comparison
/// predicts for any graph.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bitstream/correlation.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "hw/cost.hpp"

namespace sc::graph {
namespace {

/// a*b + c*d with inputs drawn from only two RNG groups - multiplies see
/// correlated operands and need decorrelation.
Program product_sum_graph() {
  GraphBuilder g;
  const Value a = g.input("a", 0.6, /*rng_group=*/0);
  const Value b = g.input("b", 0.5, 0);  // same group as a!
  const Value c = g.input("c", 0.3, 1);
  const Value d = g.input("d", 0.8, 1);
  const Value ab = g.op("multiply", {a, b});
  const Value cd = g.op("multiply", {c, d});
  const Value sum = g.op("scaled-add", {ab, cd});
  g.output(sum);
  return g.build();
}

/// |x*y - z| : a subtract that needs positive correlation between two
/// streams with shared ancestry (the "computation-induced" case).
Program edge_like_graph() {
  GraphBuilder g;
  const Value x = g.input("x", 0.7, 0);
  const Value y = g.input("y", 0.9, 1);
  const Value z = g.input("z", 0.4, 2);
  const Value xy = g.op("multiply", {x, y});
  const Value diff = g.op("subtract", {xy, z});
  g.output(diff);
  return g.build();
}

/// The fix planned in front of a two-operand op (kNone when it has none).
FixKind fix_of(const ProgramPlan& plan, NodeId op_node) {
  const std::vector<const PairFix*> fixes = plan.fixes_for(op_node);
  return fixes.empty() ? FixKind::kNone : fixes.front()->fix;
}

TEST(Dataflow, RequirementsMatchFig2) {
  const auto requirement_of = [](const std::string& op) {
    return registry().def(registry().id_of(op)).requirement;
  };
  EXPECT_EQ(requirement_of("multiply"), Requirement::kUncorrelated);
  EXPECT_EQ(requirement_of("scaled-add"), Requirement::kAgnostic);
  EXPECT_EQ(requirement_of("saturating-add"), Requirement::kNegative);
  EXPECT_EQ(requirement_of("subtract"), Requirement::kPositive);
  EXPECT_EQ(requirement_of("max"), Requirement::kPositive);
  EXPECT_EQ(requirement_of("min"), Requirement::kPositive);
}

TEST(Dataflow, ExactValueSemantics) {
  GraphBuilder g;
  const Value a = g.input("a", 0.6, 0);
  const Value b = g.input("b", 0.7, 1);
  const Value multiply = g.op("multiply", {a, b});
  const Value scaled_add = g.op("scaled-add", {a, b});
  const Value saturating_add = g.op("saturating-add", {a, b});
  const Value subtract = g.op("subtract", {a, b});
  const Value max = g.op("max", {a, b});
  const Value min = g.op("min", {a, b});
  const Program p = g.build();
  EXPECT_DOUBLE_EQ(p.exact_value(multiply.id), 0.42);
  EXPECT_DOUBLE_EQ(p.exact_value(scaled_add.id), 0.65);
  EXPECT_DOUBLE_EQ(p.exact_value(saturating_add.id), 1.0);
  EXPECT_NEAR(p.exact_value(subtract.id), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(p.exact_value(max.id), 0.7);
  EXPECT_DOUBLE_EQ(p.exact_value(min.id), 0.6);
}

TEST(Dataflow, OpNodesInTopologicalOrder) {
  const Program g = product_sum_graph();
  const auto ops = g.op_nodes();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_LT(ops[0], ops[2]);
}

// --- classification -------------------------------------------------------------

TEST(Classify, SameGroupInputsArePositive) {
  GraphBuilder g;
  const Value a = g.input("a", 0.5, 0);
  const Value b = g.input("b", 0.7, 0);
  EXPECT_EQ(classify(g.build(), a.id, b.id), Relation::kPositive);
}

TEST(Classify, DifferentGroupInputsAreIndependent) {
  GraphBuilder g;
  const Value a = g.input("a", 0.5, 0);
  const Value b = g.input("b", 0.7, 1);
  EXPECT_EQ(classify(g.build(), a.id, b.id), Relation::kIndependent);
}

TEST(Classify, SharedAncestryIsUnknown) {
  GraphBuilder g;
  const Value a = g.input("a", 0.5, 0);
  const Value b = g.input("b", 0.7, 1);
  const Value ab = g.op("multiply", {a, b});
  // A fresh group stays independent of the product.
  const Value c = g.input("c", 0.2, 2);
  const Program p = g.build();
  EXPECT_EQ(classify(p, ab.id, a.id), Relation::kUnknown);
  EXPECT_EQ(classify(p, ab.id, c.id), Relation::kIndependent);
}

// --- planning --------------------------------------------------------------------

TEST(Planner, NoStrategyRecordsViolations) {
  const ProgramPlan plan = plan_program(product_sum_graph(), Strategy::kNone);
  // Both multiplies use same-group operands -> 2 violations; the scaled
  // add is agnostic.
  EXPECT_EQ(plan.violations.size(), 2u);
  EXPECT_EQ(plan.inserted_units, 0u);
  EXPECT_EQ(plan.overhead.total_cells(), 0u);
}

TEST(Planner, ManipulationInsertsDecorrelatorsForMultiplies) {
  const ProgramPlan plan =
      plan_program(product_sum_graph(), Strategy::kManipulation);
  EXPECT_TRUE(plan.violations.empty());
  EXPECT_EQ(plan.inserted_units, 2u);
  const auto ops = product_sum_graph().op_nodes();
  EXPECT_EQ(fix_of(plan, ops[0]), FixKind::kDecorrelator);
  EXPECT_EQ(fix_of(plan, ops[1]), FixKind::kDecorrelator);
  EXPECT_EQ(fix_of(plan, ops[2]), FixKind::kNone);  // scaled add agnostic
}

TEST(Planner, ManipulationInsertsSynchronizerForSubtract) {
  const ProgramPlan plan =
      plan_program(edge_like_graph(), Strategy::kManipulation);
  const auto ops = edge_like_graph().op_nodes();
  EXPECT_EQ(fix_of(plan, ops[0]), FixKind::kNone);  // multiply: indep groups
  EXPECT_EQ(fix_of(plan, ops[1]), FixKind::kSynchronizer);
}

TEST(Planner, RegenerationStrategyUsesConverters) {
  const ProgramPlan plan =
      plan_program(edge_like_graph(), Strategy::kRegeneration);
  const auto ops = edge_like_graph().op_nodes();
  EXPECT_EQ(fix_of(plan, ops[1]), FixKind::kRegenerateShared);
}

TEST(Planner, SaturatingAddAlwaysNeedsNegativeFix) {
  GraphBuilder builder;
  const Value a = builder.input("a", 0.4, 0);
  const Value b = builder.input("b", 0.3, 1);
  builder.output(builder.op("saturating-add", {a, b}));
  const Program g = builder.build();
  const ProgramPlan manip = plan_program(g, Strategy::kManipulation);
  EXPECT_EQ(manip.fixes.back().fix, FixKind::kDesynchronizer);
  const ProgramPlan regen = plan_program(g, Strategy::kRegeneration);
  EXPECT_EQ(regen.fixes.back().fix, FixKind::kRegenerateComplementary);
}

TEST(Planner, ManipulationIsCheaperThanRegeneration) {
  // The paper's core hardware claim, at the planning level, for any graph.
  for (const Program& g : {product_sum_graph(), edge_like_graph()}) {
    const ProgramPlan manip = plan_program(g, Strategy::kManipulation);
    const ProgramPlan regen = plan_program(g, Strategy::kRegeneration);
    if (manip.inserted_units == 0) continue;
    const double manip_power = hw::evaluate(manip.overhead).power_uw;
    const double regen_power = hw::evaluate(regen.overhead).power_uw;
    EXPECT_LT(manip_power, regen_power);
  }
}

// --- execution --------------------------------------------------------------------

TEST(Executor, Width32ComparatorsProduceNonZeroStreams) {
  // Regression: the natural length was computed as `1u << width`, which is
  // UB at width 32 and wrapped input levels to 0, silently zeroing every
  // stream in the graph.
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = product_sum_graph();
  ExecConfig config;
  config.width = 32;
  config.stream_length = 512;
  const ExecutionResult result =
      kernel->run(g, plan_program(g, Strategy::kManipulation), config);
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (g.node(id).kind != ProgramNode::Kind::kInput) continue;
    EXPECT_NEAR(result.streams[id].value(), g.node(id).value, 0.1)
        << "input node " << id;
  }
}

TEST(Executor, UnfixedGraphComputesWrongValues) {
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = product_sum_graph();
  const ProgramPlan plan = plan_program(g, Strategy::kNone);
  const ExecutionResult result = kernel->run(g, plan, {});
  // Same-group multiply computes min instead of product:
  // 0.5(min(.6,.5) + min(.3,.8)) = 0.4 vs exact 0.5*(0.3+0.24) = 0.27.
  EXPECT_GT(result.mean_abs_error, 0.08);
}

TEST(Executor, ManipulationPlanRestoresAccuracy) {
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = product_sum_graph();
  const ExecutionResult fixed =
      kernel->run(g, plan_program(g, Strategy::kManipulation), {});
  EXPECT_LT(fixed.mean_abs_error, 0.05);
}

TEST(Executor, RegenerationPlanRestoresAccuracy) {
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = product_sum_graph();
  const ExecutionResult fixed =
      kernel->run(g, plan_program(g, Strategy::kRegeneration), {});
  EXPECT_LT(fixed.mean_abs_error, 0.05);
}

TEST(Executor, EdgeGraphSubtractNeedsTheSynchronizer) {
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = edge_like_graph();
  const double broken =
      kernel->run(g, plan_program(g, Strategy::kNone), {}).mean_abs_error;
  const double fixed =
      kernel->run(g, plan_program(g, Strategy::kManipulation), {})
          .mean_abs_error;
  EXPECT_LT(fixed, broken * 0.5);
  EXPECT_LT(fixed, 0.05);
}

TEST(Executor, SaturatingAddViaDesynchronizer) {
  const auto kernel = make_backend(BackendKind::kKernel);
  GraphBuilder builder;
  const Value a = builder.input("a", 0.55, 0);
  const Value b = builder.input("b", 0.6, 1);
  builder.output(builder.op("saturating-add", {a, b}));
  const Program g = builder.build();
  const ProgramPlan plan = plan_program(g, Strategy::kManipulation);
  // Default depth-2 desynchronizer gets close; the LFSR streams' run
  // structure leaves a few paired 1s, and how many depends on the derived
  // trace seeds.  Averaging over several base seeds removes that seed
  // luck, so the bound stays tight without being a lottery ticket.
  double total_error = 0.0;
  const std::uint32_t seeds[] = {3, 5, 7, 11, 13};
  for (const std::uint32_t seed : seeds) {
    ExecConfig config;
    config.seed = seed;
    total_error += std::abs(kernel->run(g, plan, config).values[0] - 1.0);
  }
  EXPECT_LT(total_error / std::size(seeds), 0.06);
  // Depth 8 absorbs the runs and saturates exactly.
  ExecConfig deep;
  deep.sync_depth = 8;
  const ExecutionResult deeper = kernel->run(g, plan, deep);
  EXPECT_NEAR(deeper.values[0], 1.0, 0.01);
}

TEST(Executor, ComplementaryRegenerationProducesNegativeScc) {
  const auto kernel = make_backend(BackendKind::kKernel);
  GraphBuilder builder;
  const Value a = builder.input("a", 0.4, 0);
  const Value b = builder.input("b", 0.45, 1);
  const Value sum = builder.op("saturating-add", {a, b});
  builder.output(sum);
  const Program g = builder.build();
  const ExecutionResult fixed =
      kernel->run(g, plan_program(g, Strategy::kRegeneration), {});
  // min(1, 0.85) without saturation: only reachable at SCC ~ -1.
  EXPECT_NEAR(fixed.values[0], 0.85, 0.03);
}

TEST(Executor, SameGroupInputsAreBitIdenticalForEqualValues) {
  const auto kernel = make_backend(BackendKind::kKernel);
  GraphBuilder builder;
  const Value a = builder.input("a", 0.5, 0);
  const Value b = builder.input("b", 0.5, 0);
  builder.output(builder.op("min", {a, b}));
  const Program g = builder.build();
  const ExecutionResult result =
      kernel->run(g, plan_program(g, Strategy::kNone), {});
  EXPECT_EQ(result.streams[a.id], result.streams[b.id]);
}

TEST(Executor, OutputsAlignWithMarkedNodes) {
  const auto kernel = make_backend(BackendKind::kKernel);
  GraphBuilder builder;
  const Value a = builder.input("a", 0.25, 0);
  const Value b = builder.input("b", 0.5, 1);
  const Value prod = builder.op("multiply", {a, b});
  builder.output(prod);
  builder.output(a);
  const Program g = builder.build();
  const ExecutionResult result =
      kernel->run(g, plan_program(g, Strategy::kNone), {});
  ASSERT_EQ(result.output_nodes.size(), 2u);
  EXPECT_EQ(result.output_nodes[0], prod.id);
  EXPECT_NEAR(result.values[1], 0.25, 0.02);
  EXPECT_DOUBLE_EQ(result.exact[0], 0.125);
}

TEST(Executor, DeterministicForFixedSeed) {
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = edge_like_graph();
  const ProgramPlan plan = plan_program(g, Strategy::kManipulation);
  const ExecutionResult r1 = kernel->run(g, plan, {});
  const ExecutionResult r2 = kernel->run(g, plan, {});
  EXPECT_EQ(r1.values, r2.values);
}

// --- end-to-end strategy comparison (the paper's §IV shape on any graph) ----

TEST(GraphIntegration, StrategyOrderingMatchesPaper) {
  const auto kernel = make_backend(BackendKind::kKernel);
  const Program g = product_sum_graph();
  const ProgramPlan none = plan_program(g, Strategy::kNone);
  const ProgramPlan manip = plan_program(g, Strategy::kManipulation);
  const ProgramPlan regen = plan_program(g, Strategy::kRegeneration);

  const double err_none = kernel->run(g, none, {}).mean_abs_error;
  const double err_manip = kernel->run(g, manip, {}).mean_abs_error;
  const double err_regen = kernel->run(g, regen, {}).mean_abs_error;

  // Accuracy: both fixes beat no manipulation.
  EXPECT_LT(err_manip, err_none);
  EXPECT_LT(err_regen, err_none);
  // Cost: manipulation is the cheaper fix.
  EXPECT_LT(hw::evaluate(manip.overhead).power_uw,
            hw::evaluate(regen.overhead).power_uw);
}

}  // namespace
}  // namespace sc::graph
