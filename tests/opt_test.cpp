/// Tests for the program-optimizer subsystem (src/opt/): opt::optimize's
/// cost/safety gate, the six passes and their read-and-propose contract, the chain-style
/// decorrelator regression (k-1 circuits for a k-way same-source fan-out,
/// with the pairwise k(k-1)/2 as the documented upper bound), statistical
/// equivalence of optimized programs across all three backends, and exact
/// bit-identity for the dedup-only pipeline.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "graph_fixtures.hpp"
#include "hw/cost.hpp"
#include "opt/optimize.hpp"

namespace sc::opt {
namespace {

using graph::BackendKind;
using graph::ExecConfig;
using graph::ExecutionResult;
using graph::FixKind;
using graph::GraphBuilder;
using graph::NodeId;
using graph::PairFix;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;
using graph::Value;
using graph::make_backend;
using graph::plan_program;
using graph::fixtures::fanout16_program;
using graph::fixtures::random_program;

std::size_t count_active_fixes(const ProgramPlan& plan, FixKind kind) {
  std::size_t count = 0;
  for (const PairFix& fix : plan.fixes) {
    if (fix.fix == kind && fix.shared_with < 0) ++count;
  }
  return count;
}

// --- satellite: chain regression -------------------------------------------

TEST(ChainDecorrelators, SixteenWayFanOutGetsFifteenNotOneHundredTwenty) {
  const Program p = fanout16_program();
  const ProgramPlan pairwise = plan_program(p, Strategy::kManipulation);
  // The planner's conservative pairwise insertion is the documented upper
  // bound: one decorrelator per copy pair, k(k-1)/2 = 120.
  EXPECT_EQ(pairwise.inserted_units, 120u);

  const OptResult optimized = optimize(p, pairwise);
  // The paper's chain: k-1 = 15 circuits decorrelate all 16 copies.
  EXPECT_EQ(optimized.plan.inserted_units, 15u);
  EXPECT_EQ(count_active_fixes(optimized.plan, FixKind::kDecorrelatorChain),
            15u);
  EXPECT_EQ(count_active_fixes(optimized.plan, FixKind::kDecorrelator), 0u);
  EXPECT_EQ(optimized.corrections_saved(), 105u);
  const OptAssessment assessed = assess(p, pairwise, optimized);
  EXPECT_LT(assessed.area_after_um2, assessed.area_before_um2);
  // The cost delta prices the saved cells: strictly negative across the
  // board for a 105-circuit reduction.
  EXPECT_LT(assessed.cost_delta.area_um2, 0.0);
  EXPECT_LT(assessed.cost_delta.power_uw, 0.0);
  EXPECT_LT(assessed.cost_delta.energy_pj, 0.0);
  EXPECT_TRUE(plan_covers(optimized.plan));
  // The program itself is untouched (plan-only rewrite).
  EXPECT_EQ(optimized.program.node_count(), p.node_count());
}

TEST(ChainDecorrelators, ChainedProgramStaysAccurateOnEveryBackend) {
  const Program p = fanout16_program(0.9);  // exact 0.9^16 ~ 0.185
  const ProgramPlan pairwise = plan_program(p, Strategy::kManipulation);
  const ProgramPlan broken = plan_program(p, Strategy::kNone);
  const OptResult optimized = optimize(p, pairwise);

  ExecConfig config;
  config.stream_length = 4096;
  ExecutionResult first;
  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const auto backend = make_backend(kind);
    const ExecutionResult chained =
        backend->run(optimized.program, optimized.plan, config);
    const double unfixed = backend->run(p, broken, config).mean_abs_error;
    // AND of 16 identical copies computes x (= 0.9), exact is ~0.185.
    EXPECT_GT(unfixed, 0.5) << backend->name();
    EXPECT_LT(chained.mean_abs_error, 0.1) << backend->name();
    EXPECT_LT(chained.mean_abs_error, unfixed * 0.3) << backend->name();
    // All backends agree bit-for-bit on the optimized plan.
    if (first.values.empty()) {
      first = chained;
    } else {
      ASSERT_EQ(chained.streams.size(), first.streams.size());
      for (std::size_t s = 0; s < first.streams.size(); ++s) {
        EXPECT_EQ(chained.streams[s], first.streams[s])
            << backend->name() << " stream " << s;
      }
    }
  }
}

// --- individual passes -----------------------------------------------------

TEST(Passes, CseMergesDuplicateRngFreeOps) {
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.4, 1);
  const Value m1 = b.op("multiply", {x, y});
  const Value m2 = b.op("multiply", {x, y});
  b.output(b.op("toggle-add", {m1, m2}), "out");
  const Program p = b.build();

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  const OptResult o = optimize(p, plan);
  EXPECT_EQ(o.nodes_removed(), 1u);
  EXPECT_EQ(o.program.node_count(), p.node_count() - 1);
  // The duplicate maps onto the survivor, not kInvalidNode: its stream
  // still exists (it IS the survivor's).
  EXPECT_EQ(o.node_map[m2.id], o.node_map[m1.id]);
  const OptAssessment assessed = assess(p, plan, o);
  EXPECT_LT(assessed.area_after_um2, assessed.area_before_um2);
}

TEST(Passes, CseNeverMergesOpsWhosePlannedFixesDrawRng) {
  // Two multiply(x, y) duplicates whose operands share one RNG group:
  // each gets its own decorrelator fix, seeded by its own seed_tag, so
  // the two output streams differ bit-wise — merging them would silently
  // change the second consumer's stream and break the dedup-only
  // pipeline's bit-identity guarantee.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.4, 0);  // same group: decorrelators planned
  const Value m1 = b.op("multiply", {x, y});
  const Value m2 = b.op("multiply", {x, y});
  b.output(b.op("toggle-add", {m1, m2}), "out");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  ASSERT_EQ(plan.inserted_units, 2u);  // one decorrelator per duplicate

  const OptResult o = optimize(p, plan, OptConfig::bit_identical());
  EXPECT_EQ(o.program.node_count(), p.node_count());
  EXPECT_EQ(o.nodes_removed(), 0u);

  // And the bit-identity property holds end to end.
  ExecConfig config;
  const auto backend = make_backend(BackendKind::kKernel);
  const ExecutionResult plain = backend->run(p, plan, config);
  const ExecutionResult opt = backend->run(o.program, o.plan, config);
  for (NodeId id = 0; id < p.node_count(); ++id) {
    ASSERT_NE(o.node_map[id], graph::kInvalidNode);
    EXPECT_EQ(plain.streams[id], opt.streams[o.node_map[id]])
        << "node " << id;
  }
  // Sanity: the duplicates really do carry distinct streams (the reason
  // the merge must not happen).
  EXPECT_NE(plain.streams[m1.id], plain.streams[m2.id]);
}

TEST(Passes, CseStaysBitIdenticalWhenAMergeSatisfiesAPositivePair) {
  // Regression: a custom operator mixing a kPositive pair with a
  // kUncorrelated pair.  CSE-merging the duplicates feeding the positive
  // pair makes it provably satisfied (a == b), so the replan drops its
  // synchronizer — and with positional fix lanes the surviving
  // decorrelator would shift from lane 1 to lane 0 and reseed.  Fix
  // seeds are keyed by the operand slot pair precisely so this rewrite
  // stays bit-identical.
  graph::OperatorRegistry reg = graph::OperatorRegistry::with_builtins();
  {
    graph::OperatorDef def;
    def.name = "mixed-3";
    def.arity = 3;
    def.pair_requirement = [](unsigned i, unsigned j) {
      if (i == 0 && j == 1) return graph::Requirement::kPositive;
      if (i == 0 && j == 2) return graph::Requirement::kUncorrelated;
      return graph::Requirement::kAgnostic;
    };
    def.exact = [](sc::span<const double> v) {
      return (v[0] + v[1] + v[2]) / 3.0;
    };
    class MajorityEvaluator final : public graph::OpEvaluator {
     public:
      bool step(const bool* in) override {
        return (in[0] ? 1 : 0) + (in[1] ? 1 : 0) + (in[2] ? 1 : 0) >= 2;
      }
    };
    def.make_evaluator = [](const graph::OpContext&) {
      return std::make_unique<MajorityEvaluator>();
    };
    def.netlist = [](unsigned) {
      return hw::Netlist("mixed-3").add(hw::Cell::kAnd2, 2).add(hw::Cell::kOr2,
                                                                2);
    };
    reg.add(std::move(def));
  }

  GraphBuilder b(reg);
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.4, 1);
  const Value z = b.input("z", 0.5, 0);  // shares x's group -> decorrelator
  const Value m1 = b.op("multiply", {x, y});
  const Value m2 = b.op("multiply", {x, y});  // CSE duplicate (RNG-free)
  b.output(b.op("mixed-3", {m1, m2, z}), "out");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);

  const OptResult o = optimize(p, plan, OptConfig::bit_identical());
  EXPECT_EQ(o.nodes_removed(), 1u);  // the duplicate merged

  ExecConfig config;
  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const auto backend = make_backend(kind);
    const ExecutionResult plain = backend->run(p, plan, config);
    const ExecutionResult opt = backend->run(o.program, o.plan, config);
    for (NodeId id = 0; id < p.node_count(); ++id) {
      const NodeId mapped = o.node_map[id];
      if (mapped == graph::kInvalidNode) continue;
      EXPECT_EQ(plain.streams[id], opt.streams[mapped])
          << backend->name() << " node " << id;
    }
  }
}

TEST(Passes, CseNeverMergesOpsWithPrivateRngSlots) {
  // Two scaled-adds over the same operands draw distinct select sequences
  // (seeds keyed by seed_tag), so their streams differ and the CSE key —
  // which includes the RNG-slot seeds — must keep them apart.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.4, 1);
  const Value a1 = b.op("scaled-add", {x, y});
  const Value a2 = b.op("scaled-add", {x, y});
  b.output(b.op("toggle-add", {a1, a2}), "out");
  const Program p = b.build();

  const OptResult o = optimize(p, plan_program(p, Strategy::kManipulation));
  EXPECT_EQ(o.program.node_count(), p.node_count());
  EXPECT_EQ(o.nodes_removed(), 0u);
}

TEST(Passes, ConstantFoldingReplacesConstantSubtreesAndDropsOrphans) {
  GraphBuilder b;
  const Value x = b.input("x", 0.8, 0);
  const Value c1 = b.constant(0.5);
  const Value c2 = b.constant(0.6);
  const Value prod = b.op("multiply", {c1, c2});  // foldable: 0.3
  b.output(b.op("multiply", {x, prod}), "out");
  const Program p = b.build();
  const double exact_before = p.exact_value(p.outputs()[0]);

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  const OptResult o = optimize(p, plan);
  // multiply(c1,c2) became a constant; c1 and c2 are orphaned and dropped.
  EXPECT_EQ(o.nodes_removed(), 2u);
  EXPECT_EQ(o.program.node_count(), 3u);  // x, folded const, the multiply
  const OptAssessment assessed = assess(p, plan, o);
  EXPECT_LT(assessed.area_after_um2, assessed.area_before_um2);
  EXPECT_DOUBLE_EQ(o.program.exact_value(o.program.outputs()[0]),
                   exact_before);
  const NodeId folded = o.node_map[prod.id];
  ASSERT_NE(folded, graph::kInvalidNode);
  EXPECT_EQ(o.program.node(folded).kind,
            graph::ProgramNode::Kind::kConstant);
  EXPECT_DOUBLE_EQ(o.program.node(folded).value, 0.3);
}

TEST(Passes, DeadValueEliminationDropsUnreachableNodes) {
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.4, 1);
  const Value dead_in = b.input("unused", 0.5, 2);
  const Value dead_op = b.op("multiply", {dead_in, y});
  (void)dead_op;
  b.output(b.op("min", {x, y}), "out");
  const Program p = b.build();

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  const OptResult o = optimize(p, plan);
  EXPECT_EQ(o.nodes_removed(), 2u);
  EXPECT_EQ(o.node_map[dead_in.id], graph::kInvalidNode);
  EXPECT_EQ(o.node_map[dead_op.id], graph::kInvalidNode);
  const OptAssessment assessed = assess(p, plan, o);
  EXPECT_LT(assessed.area_after_um2, assessed.area_before_um2);
}

TEST(Passes, CorrectionSharingChargesSiblingSynchronizersOnce) {
  // Two sibling ops read the same (xy, z) pair and each needs SCC = +1:
  // the planner inserts two identical synchronizers; the optimizer fans
  // one circuit out to both consumers.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.9, 1);
  const Value z = b.input("z", 0.4, 2);
  const Value xy = b.op("multiply", {x, y});
  b.output(b.op("subtract", {xy, z}), "diff");
  b.output(b.op("min", {xy, z}), "floor");
  const Program p = b.build();

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  EXPECT_EQ(plan.inserted_units, 2u);
  const OptResult o = optimize(p, plan);
  EXPECT_EQ(o.plan.inserted_units, 1u);
  EXPECT_EQ(o.corrections_saved(), 1u);
  const OptAssessment assessed = assess(p, plan, o);
  EXPECT_LT(assessed.area_after_um2, assessed.area_before_um2);

  std::size_t shared = 0;
  for (const PairFix& fix : o.plan.fixes) {
    if (fix.shared_with >= 0) {
      ++shared;
      EXPECT_EQ(o.plan.fixes[fix.shared_with].fix, fix.fix);
    }
  }
  EXPECT_EQ(shared, 1u);

  // Sharing is an accounting rewrite: execution is bit-identical to the
  // unshared plan (the mirrored FSM is deterministic on the same inputs).
  ExecConfig config;
  const auto backend = make_backend(BackendKind::kKernel);
  const ExecutionResult unshared = backend->run(p, plan, config);
  const ExecutionResult with_sharing = backend->run(o.program, o.plan, config);
  ASSERT_EQ(unshared.streams.size(), with_sharing.streams.size());
  for (std::size_t s = 0; s < unshared.streams.size(); ++s) {
    EXPECT_EQ(unshared.streams[s], with_sharing.streams[s]) << "stream " << s;
  }
}

bool same_program(const Program& a, const Program& b) {
  if (a.node_count() != b.node_count() || a.outputs() != b.outputs()) {
    return false;
  }
  for (NodeId id = 0; id < a.node_count(); ++id) {
    const graph::ProgramNode& x = a.node(id);
    const graph::ProgramNode& y = b.node(id);
    if (x.kind != y.kind || x.name != y.name ||
        std::bit_cast<std::uint64_t>(x.value) !=
            std::bit_cast<std::uint64_t>(y.value) ||
        x.rng_group != y.rng_group || x.op != y.op ||
        x.operands != y.operands || x.seed_tag != y.seed_tag) {
      return false;
    }
  }
  return true;
}

bool same_plan(const ProgramPlan& a, const ProgramPlan& b) {
  if (a.strategy != b.strategy || a.fixes.size() != b.fixes.size() ||
      a.violations != b.violations || a.inserted_units != b.inserted_units ||
      a.overhead.label() != b.overhead.label()) {
    return false;
  }
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    const PairFix& x = a.fixes[i];
    const PairFix& y = b.fixes[i];
    if (x.op_node != y.op_node || x.operand_a != y.operand_a ||
        x.operand_b != y.operand_b || x.requirement != y.requirement ||
        x.relation != y.relation || x.fix != y.fix ||
        x.shared_with != y.shared_with) {
      return false;
    }
  }
  for (std::size_t cell = 0; cell < hw::kCellCount; ++cell) {
    const auto c = static_cast<hw::Cell>(cell);
    if (a.overhead.count(c) != b.overhead.count(c)) return false;
  }
  return true;
}

TEST(Gate, CostGateRejectsAreaRaisingRewrites) {
  // multiply(c1, c2) where c1 and c2 are themselves outputs: folding would
  // add a fresh SNG (comparator + LFSR) while removing only an AND gate —
  // the gate must reject it and hand back the untouched program and plan.
  GraphBuilder b;
  const Value c1 = b.constant(0.5, "c1");
  const Value c2 = b.constant(0.6, "c2");
  b.output(b.op("multiply", {c1, c2}), "prod");
  b.output(c1, "c1-out").output(c2, "c2-out");
  const Program p = b.build();

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  const OptResult o = optimize(p, plan);
  EXPECT_TRUE(same_program(o.program, p));
  EXPECT_TRUE(same_plan(o.plan, plan));
  EXPECT_EQ(o.nodes_removed(), 0u);
  const OptAssessment assessed = assess(p, plan, o);
  EXPECT_DOUBLE_EQ(assessed.area_after_um2, assessed.area_before_um2);
  bool fold_rejected = false;
  for (const PassReport& report : o.reports) {
    if (report.pass == "constant-fold") {
      fold_rejected = report.changed && !report.accepted;
    }
  }
  EXPECT_TRUE(fold_rejected);
}

TEST(Passes, NoProposalCountsNothingAndEveryProposalDiffersFromItsInput) {
  const std::pair<const char*, PassFn*> passes[] = {
      {"constant-fold", &fold_constants},
      {"cse", &merge_common_subexpressions},
      {"dve", &drop_dead_values},
      {"chain-decorrelators", &chain_decorrelators},
      {"share-corrections", &share_corrections},
      {"drop-dead-fixes", &drop_dead_fixes},
  };
  std::size_t none = 0;
  std::size_t proposals = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::mt19937_64 gen(7000 + seed);
    const Program program = random_program(gen);
    for (const Strategy strategy :
         {Strategy::kManipulation, Strategy::kRegeneration}) {
      const ProgramPlan plan = plan_program(program, strategy);
      // Each pass sees the planned program and the optimized one, where
      // the other passes' rewrites are already applied.
      const OptResult optimized = optimize(program, plan);
      const std::pair<const Program*, const ProgramPlan*> inputs[] = {
          {&program, &plan}, {&optimized.program, &optimized.plan}};
      for (const auto& [in_program, in_plan] : inputs) {
        for (const auto& [name, pass] : passes) {
          PassReport report;
          const std::optional<Rewrite> rewrite =
              pass(*in_program, *in_plan, OptConfig{}, report);
          const std::string label = std::string(name) + " seed " +
                                    std::to_string(seed) + " " +
                                    graph::to_string(strategy);
          if (!rewrite) {
            ++none;
            EXPECT_EQ(report.nodes_removed, 0u) << label;
            EXPECT_EQ(report.nodes_folded, 0u) << label;
            EXPECT_EQ(report.corrections_saved, 0u) << label;
            EXPECT_TRUE(report.detail.empty()) << label;
            continue;
          }
          ++proposals;
          if (const auto* rewritten = std::get_if<ProgramRewrite>(&*rewrite)) {
            EXPECT_FALSE(same_program(rewritten->program, *in_program))
                << label;
            EXPECT_EQ(rewritten->remap.size(), in_program->node_count())
                << label;
          } else {
            EXPECT_FALSE(same_plan(std::get<ProgramPlan>(*rewrite), *in_plan))
                << label;
          }
        }
      }
    }
  }
  EXPECT_GT(none, 0u);
  EXPECT_GT(proposals, 0u);
}

// --- satellite: optimized == unoptimized, statistically and bit-exactly ----

TEST(OptEquivalence, DedupOnlyPipelineIsBitIdenticalOnRandomPrograms) {
  // CSE + DVE + correction sharing never reseed: every surviving node's
  // stream must match the unoptimized run bit for bit, on every backend.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 gen(5000 + seed);
    const Program p = random_program(gen);
    for (const Strategy strategy :
         {Strategy::kNone, Strategy::kManipulation, Strategy::kRegeneration}) {
      const ProgramPlan plan = plan_program(p, strategy);
      const OptResult o = optimize(p, plan, OptConfig::bit_identical());
      ExecConfig config;
      config.stream_length = 300;
      config.seed = static_cast<std::uint32_t>(11 + seed);
      for (const BackendKind kind : {BackendKind::kReference,
                                     BackendKind::kKernel,
                                     BackendKind::kEngine}) {
        const auto backend = make_backend(kind);
        const ExecutionResult plain = backend->run(p, plan, config);
        const ExecutionResult opt =
            backend->run(o.program, o.plan, config);
        const std::string label = backend->name() + " seed " +
                                  std::to_string(seed) + " " +
                                  graph::to_string(strategy);
        for (NodeId id = 0; id < p.node_count(); ++id) {
          const NodeId mapped = o.node_map[id];
          if (mapped == graph::kInvalidNode) continue;
          EXPECT_EQ(plain.streams[id], opt.streams[mapped])
              << label << " node " << id;
        }
        ASSERT_EQ(plain.values.size(), opt.values.size()) << label;
        for (std::size_t i = 0; i < plain.values.size(); ++i) {
          EXPECT_DOUBLE_EQ(plain.values[i], opt.values[i]) << label;
        }
      }
    }
  }
}

TEST(OptEquivalence, FullPipelineIsStatisticallyEquivalentOnRandomPrograms) {
  // The full pipeline may reseed (fold, chain), so optimized streams can
  // differ — but exact semantics are preserved, all three backends stay
  // bit-identical to each other, and accuracy does not degrade beyond
  // sampling noise.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 gen(9000 + seed);
    const Program p = random_program(gen);
    const ProgramPlan plan = plan_program(p, Strategy::kManipulation);

    ExecConfig config;
    config.stream_length = 2048;
    ExecConfig optimizing = config;
    optimizing.optimize = true;

    const auto reference = make_backend(BackendKind::kReference);
    const ExecutionResult plain = reference->run(p, plan, config);
    const ExecutionResult opt = reference->run(p, plan, optimizing);
    const std::string label = "seed " + std::to_string(seed);

    ASSERT_EQ(opt.values.size(), plain.values.size()) << label;
    for (std::size_t i = 0; i < plain.exact.size(); ++i) {
      EXPECT_DOUBLE_EQ(opt.exact[i], plain.exact[i]) << label;
      // Both runs are stochastic estimates of the same exact value; the
      // optimized one must not be meaningfully worse.
      EXPECT_LT(opt.abs_errors[i], plain.abs_errors[i] + 0.1) << label;
    }
    EXPECT_LT(opt.mean_abs_error, plain.mean_abs_error + 0.05) << label;

    // ExecConfig::optimize front: every backend optimizes identically.
    for (const BackendKind kind :
         {BackendKind::kKernel, BackendKind::kEngine}) {
      const ExecutionResult other = make_backend(kind)->run(p, plan,
                                                            optimizing);
      ASSERT_EQ(other.values.size(), opt.values.size()) << label;
      for (std::size_t i = 0; i < opt.values.size(); ++i) {
        EXPECT_DOUBLE_EQ(other.values[i], opt.values[i])
            << label << " backend " << static_cast<int>(kind);
      }
      ASSERT_EQ(other.streams.size(), opt.streams.size()) << label;
      for (std::size_t s = 0; s < opt.streams.size(); ++s) {
        EXPECT_EQ(other.streams[s], opt.streams[s])
            << label << " stream " << s;
      }
    }
  }
}

TEST(OptEquivalence, ExecConfigOptimizeMapsStreamsBackToCallerIds) {
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.4, 1);
  const Value m1 = b.op("multiply", {x, y});
  const Value m2 = b.op("multiply", {x, y});          // CSE-merged
  const Value dead = b.input("dead", 0.5, 2);         // DVE-removed
  b.output(b.op("toggle-add", {m1, m2}), "out");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);

  ExecConfig optimizing;
  optimizing.optimize = true;
  const ExecutionResult r =
      make_backend(BackendKind::kKernel)->run(p, plan, optimizing);
  // Streams come back on the caller's ids: the duplicate aliases the
  // survivor, the dead input is empty, outputs keep their original ids.
  ASSERT_EQ(r.streams.size(), p.node_count());
  EXPECT_EQ(r.streams[m1.id], r.streams[m2.id]);
  EXPECT_FALSE(r.streams[m1.id].size() == 0);
  EXPECT_EQ(r.streams[dead.id].size(), 0u);
  ASSERT_EQ(r.output_nodes.size(), 1u);
  EXPECT_EQ(r.output_nodes[0], p.outputs()[0]);

  const ExecutionResult plain =
      make_backend(BackendKind::kKernel)->run(p, plan, {});
  EXPECT_DOUBLE_EQ(r.values[0], plain.values[0]);
}

}  // namespace
}  // namespace sc::opt
