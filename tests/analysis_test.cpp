/// Directed tests for the static analyzer (src/analysis/): seed
/// provenance and masked collisions, correlation dataflow verdicts,
/// redundancy and fragility diagnostics, the .sct text format, the
/// ExecConfig::analyze gate, and the optimizer's dead-fix pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/error_model.hpp"
#include "analysis/provenance.hpp"
#include "analysis/text_format.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "graph/seeds.hpp"
#include "graph_fixtures.hpp"
#include "opt/optimize.hpp"

namespace sc::analysis {
namespace {

using graph::ExecConfig;
using graph::FixKind;
using graph::GraphBuilder;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;
using graph::Value;
using graph::plan_program;

std::size_t count_id(const AnalysisReport& report, const std::string& id) {
  std::size_t n = 0;
  for (const Diagnostic& diagnostic : report.diagnostics) {
    n += diagnostic.id == id;
  }
  return n;
}

/// Smallest group id whose derived trace seed aliases group `base`'s
/// after width-masking (distinct SplitMix64 folds, equal LFSR schedule).
unsigned aliasing_group(unsigned base, std::uint32_t seed, unsigned width) {
  const GeneratorId want = effective_generator(
      graph::seeds::derive_seed32(seed, base, graph::seeds::Role::kGroupTrace),
      width);
  for (unsigned g = base + 1; g < 4096; ++g) {
    const std::uint32_t derived = graph::seeds::derive_seed32(
        seed, g, graph::seeds::Role::kGroupTrace);
    if (effective_generator(derived, width) == want) return g;
  }
  ADD_FAILURE() << "no aliasing group found (width " << width << ")";
  return base;
}

Program two_group_multiply(unsigned group_a, unsigned group_b) {
  GraphBuilder builder;
  const Value a = builder.input("a", 0.8, group_a);
  const Value b = builder.input("b", 0.6, group_b);
  builder.output(builder.op("multiply", {a, b}), "prod");
  return builder.build();
}

Program bernstein_triple() {
  GraphBuilder builder;
  const Value x = builder.input("x", 0.7, 0);
  builder.output(builder.op("bernstein-x2-3", {x, x, x}), "poly");
  return builder.build();
}

// ------------------------------------------------------- seed provenance

TEST(SeedProvenance, MaskedGroupAliasIsASeedCollisionError) {
  AnalyzerConfig config;
  const unsigned alias = aliasing_group(2, config.seed, config.width);
  const Program program = two_group_multiply(2, alias);
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const AnalysisReport report = analyze(program, plan, config);

  // The planner saw two distinct groups, called the pair independent, and
  // inserted nothing — the analyzer must catch both the alias and the
  // violated multiply.
  EXPECT_TRUE(report.has_errors());
  EXPECT_GE(count_id(report, "seed-collision"), 1u);
  EXPECT_GE(count_id(report, "requirement-violation"), 1u);
  EXPECT_EQ(report.node_class(0, 1), SccClass::kCorrelated);

  // Same program at a base seed where the groups do not alias: clean.
  AnalyzerConfig other = config;
  other.seed = config.seed + 1;
  const GeneratorId a = effective_generator(
      graph::seeds::derive_seed32(other.seed, 2,
                                  graph::seeds::Role::kGroupTrace),
      other.width);
  const GeneratorId b = effective_generator(
      graph::seeds::derive_seed32(other.seed, alias,
                                  graph::seeds::Role::kGroupTrace),
      other.width);
  if (!(a == b)) {
    const AnalysisReport clean = analyze(program, plan, other);
    EXPECT_EQ(count_id(clean, "seed-collision"), 0u);
    EXPECT_FALSE(clean.has_errors());
  }
}

TEST(SeedProvenance, RecordsMatchBackendDerivedSeeds) {
  std::mt19937_64 gen(0xABCDEFull);
  const Program program = graph::fixtures::random_program(gen, 6);
  ExecConfig config;
  config.seed = 77;
  for (const Strategy strategy :
       {Strategy::kNone, Strategy::kManipulation, Strategy::kRegeneration}) {
    const ProgramPlan plan = plan_program(program, strategy);
    const SeedReport report = seed_provenance(program, plan, config);
    std::vector<std::uint32_t> expected;
    for (const graph::SeedSite& site : graph::seed_sites(program, plan)) {
      expected.push_back(site.seed32(config.seed));
    }
    std::vector<std::uint32_t> got;
    got.reserve(report.records.size());
    for (const SeedRecord& record : report.records) {
      got.push_back(record.seed32);
    }
    // One record per seed site of the run, order included.
    EXPECT_EQ(got, expected) << "strategy " << to_string(strategy);
  }
}

TEST(SeedProvenance, ExactCollisionsAreSubsetOfMasked) {
  std::vector<SeedRecord> records(3);
  records[0].seed32 = 0x1234;
  records[0].generator = GeneratorId{0x34, 0};
  records[1].seed32 = 0xFF34;
  records[1].generator = GeneratorId{0x34, 0};
  records[2].seed32 = 0x1234;
  records[2].generator = GeneratorId{0x34, 3};  // rotated: distinct schedule
  const std::vector<SeedCollision> collisions = find_collisions(records);
  ASSERT_EQ(collisions.size(), 1u);
  EXPECT_EQ(collisions[0].first, 0u);
  EXPECT_EQ(collisions[0].second, 1u);
  EXPECT_FALSE(collisions[0].exact);
}

// -------------------------------------------------- correlation verdicts

TEST(Analyzer, UnfixedRequirementViolationIsAnError) {
  const Program program = two_group_multiply(0, 0);
  const ProgramPlan none = plan_program(program, Strategy::kNone);
  const AnalysisReport report = analyze(program, none);
  EXPECT_TRUE(report.has_errors());
  EXPECT_GE(count_id(report, "requirement-violation"), 1u);

  const ProgramPlan fixed = plan_program(program, Strategy::kManipulation);
  const AnalysisReport clean = analyze(program, fixed);
  EXPECT_FALSE(clean.has_errors());
  ASSERT_EQ(clean.pairs.size(), 1u);
  EXPECT_EQ(clean.pairs[0].operands, SccClass::kCorrelated);
  EXPECT_EQ(clean.pairs[0].at_gate, SccClass::kIndependent);
  EXPECT_TRUE(clean.pairs[0].satisfied);
}

TEST(Analyzer, WidthsEveryBackendRejectsThrow) {
  // Unchecked, width 64 shifted 1 by 64 (sc_lint printed "deterministic
  // bias bound nan") and widths 2, 33 and 100 linted clean.
  const Program program = two_group_multiply(0, 1);
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  for (const unsigned width : {2u, 33u, 64u, 100u}) {
    AnalyzerConfig config;
    config.width = width;
    EXPECT_THROW(analyze(program, plan, config), std::invalid_argument)
        << width;
    EXPECT_THROW(plan_accuracy(program, plan, config), std::invalid_argument)
        << width;
    EXPECT_THROW(plan_fragility(program, plan, config), std::invalid_argument)
        << width;
  }
  for (const unsigned width : {3u, 32u}) {
    AnalyzerConfig config;
    config.width = width;
    EXPECT_NO_THROW(analyze(program, plan, config)) << width;
  }
}

TEST(Analyzer, ThresholdPropagationProvesInversion) {
  GraphBuilder builder;
  const Value x = builder.input("x", 0.3, 0);
  const Value n = builder.op("negate-bipolar", {x});
  builder.output(n, "neg");
  const Program program = builder.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const AnalysisReport report = analyze(program, plan);
  // NOT flips the threshold comparison: provably SCC = -1 with its input.
  EXPECT_EQ(report.node_class(x.id, n.id), SccClass::kAnticorrelated);
  EXPECT_EQ(report.node_class(x.id, x.id), SccClass::kCorrelated);
}

TEST(Analyzer, DesynchronizerSatisfiesNegativeRequirement) {
  GraphBuilder builder;
  const Value a = builder.input("a", 0.4, 0);
  const Value b = builder.input("b", 0.7, 0);
  builder.output(builder.op("saturating-add", {a, b}), "sum");
  const Program program = builder.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const AnalysisReport report = analyze(program, plan);
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_EQ(report.pairs[0].requirement, graph::Requirement::kNegative);
  EXPECT_EQ(report.pairs[0].at_gate, SccClass::kAnticorrelated);
  EXPECT_TRUE(report.pairs[0].satisfied);
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyzer, DeadValuesAndConstantSubgraphsAreNotes) {
  GraphBuilder builder;
  const Value x = builder.input("x", 0.5, 0);
  const Value c1 = builder.constant(0.25, "c1");
  const Value c2 = builder.constant(0.75, "c2");
  const Value folded = builder.op("multiply", {c1, c2});  // constant-foldable
  const Value dead = builder.op("scaled-add", {x, c1});   // never output
  (void)dead;
  builder.output(builder.op("multiply", {x, folded}), "out");
  const Program program = builder.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const AnalysisReport report = analyze(program, plan);
  EXPECT_GE(count_id(report, "dead-value"), 1u);
  EXPECT_GE(count_id(report, "constant-foldable"), 1u);
  // The dead scaled-add draws a private MUX-select RNG nobody uses.
  EXPECT_GE(count_id(report, "dead-rng"), 1u);
  EXPECT_FALSE(report.has_errors());
}

// ------------------------------------------------- redundancy & fragility

TEST(Analyzer, PairwiseDecorrelatorsOnSharedTripleAreEachRedundant) {
  const Program program = bernstein_triple();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const AnalysisReport report = analyze(program, plan);
  // Any two of the three pairwise decorrelators suffice, so each one is
  // individually redundant (counterfactual: removal keeps all pairs met).
  EXPECT_EQ(report.redundant_fixes.size(), 3u);
  EXPECT_EQ(count_id(report, "redundant-fix"), 3u);
  for (const RedundantFix& redundant : report.redundant_fixes) {
    EXPECT_EQ(redundant.without_fix, SccClass::kIndependent);
  }
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyzer, ChainFragilityExceedsSyncBaseline) {
  // 16 mutually-uncorrelated copies of x through a kMaxArity-wide AND;
  // the optimizer's chain pass rewrites the planner's 120 pairwise
  // decorrelators into the paper's 15-link series chain.
  graph::OperatorRegistry registry = graph::OperatorRegistry::with_builtins();
  class AndAll final : public graph::OpEvaluator {
   public:
    explicit AndAll(unsigned arity) : arity_(arity) {}
    bool step(const bool* bits) override {
      bool out = true;
      for (unsigned i = 0; i < arity_; ++i) out = out && bits[i];
      return out;
    }

   private:
    unsigned arity_;
  };
  graph::OperatorDef def;
  def.name = "and-16";
  def.arity = graph::kMaxArity;
  def.requirement = graph::Requirement::kUncorrelated;
  def.exact = [](sc::span<const double> v) {
    double product = 1.0;
    for (const double value : v) product *= value;
    return product;
  };
  def.make_evaluator = [](const graph::OpContext&) {
    return std::make_unique<AndAll>(graph::kMaxArity);
  };
  registry.add(std::move(def));
  GraphBuilder builder(registry);
  const Value x = builder.input("x", 0.6, 0);
  builder.output(builder.op("and-16", std::vector<Value>(16, x)), "poly");
  const Program program = builder.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  opt::OptConfig opt_config;
  const opt::OptResult optimized = opt::optimize(program, plan, opt_config);
  std::size_t links = 0;
  for (const graph::PairFix& fix : optimized.plan.fixes) {
    links += fix.fix == FixKind::kDecorrelatorChain;
  }
  ASSERT_EQ(links, 15u);

  const AnalysisReport report = analyze(optimized.program, optimized.plan);
  EXPECT_GE(count_id(report, "chain-reconvergence"), 1u);
  double max_blast = 0.0;
  for (const FixFragility& fragility : report.fix_fragility) {
    if (fragility.kind == FixKind::kDecorrelatorChain) {
      max_blast = std::max(max_blast, fragility.blast);
    }
  }
  // The head link's upset poisons every downstream copy.
  EXPECT_EQ(max_blast, 15.0);

  // Baseline: one synchronizer (same-group subtract) — recovers in
  // O(depth) cycles, holds sync_depth counter bits.
  GraphBuilder base_builder;
  const Value a = base_builder.input("a", 0.9, 0);
  const Value b = base_builder.input("b", 0.4, 0);
  base_builder.output(base_builder.op("subtract", {a, b}), "diff");
  const Program base_program = base_builder.build();
  const ProgramPlan base_plan =
      plan_program(base_program, Strategy::kManipulation);
  EXPECT_GT(plan_fragility(optimized.program, optimized.plan),
            plan_fragility(base_program, base_plan));
  // ... and the chain is *more* fragile than it is cheap: the optimizer
  // surfaces both ends of that trade.
  const opt::OptAssessment assessed =
      opt::assess(program, plan, optimized, opt_config);
  EXPECT_LT(assessed.area_after_um2, assessed.area_before_um2);
}

TEST(Optimizer, ReportsPlanFragilityBeforeAndAfter) {
  const Program program = bernstein_triple();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  opt::OptConfig config;
  const opt::OptResult result = opt::optimize(program, plan, config);
  const opt::OptAssessment assessed =
      opt::assess(program, plan, result, config);
  EXPECT_DOUBLE_EQ(assessed.fragility_before, plan_fragility(program, plan));
  EXPECT_DOUBLE_EQ(assessed.fragility_after,
                   plan_fragility(result.program, result.plan));
  // 3 pairwise shuffles -> 2 chain links: less inserted state.
  EXPECT_LT(assessed.fragility_after, assessed.fragility_before);
  EXPECT_NE(assessed.summary().find("fragility"), std::string::npos);
}

TEST(Optimizer, DeadFixPassDropsProvablyRedundantDecorrelators) {
  const Program program = bernstein_triple();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  opt::OptConfig config;
  config.constant_folding = false;
  config.cse = false;
  config.dead_value_elimination = false;
  config.chain_decorrelators = false;  // keep the pairwise triple
  config.correction_sharing = false;
  config.dead_fix_elimination = true;
  const opt::OptResult result = opt::optimize(program, plan, config);
  // Greedy drop with chain-rule re-checking: two of the three go, the
  // third must stay (it is the last shuffle standing).
  EXPECT_EQ(result.corrections_saved(), 2u);
  std::size_t active = 0;
  for (const graph::PairFix& fix : result.plan.fixes) {
    active += fix.fix != FixKind::kNone;
  }
  EXPECT_EQ(active, 1u);
  EXPECT_TRUE(opt::plan_covers(result.plan));
  EXPECT_EQ(result.plan.violations.size(), plan.violations.size());

  // Nothing left to drop — and no violations introduced.
  const AnalysisReport after = analyze(result.program, result.plan);
  EXPECT_FALSE(after.has_errors());
  EXPECT_EQ(after.redundant_fixes.size(), 0u);
}

// ------------------------------------------------------- execution gate

TEST(AnalyzeGate, CleanProgramExecutes) {
  const Program program = two_group_multiply(0, 0);
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  ExecConfig config;
  config.analyze = true;
  const graph::ExecutionResult result =
      graph::make_backend(graph::BackendKind::kReference)
          ->run(program, plan, config);
  ASSERT_EQ(result.values.size(), 1u);
  EXPECT_NEAR(result.values[0], 0.48, 0.15);
}

TEST(AnalyzeGate, ErrorFindingsAbortTheRun) {
  ExecConfig config;
  config.analyze = true;
  const unsigned alias = aliasing_group(2, config.seed, config.width);
  const Program program = two_group_multiply(2, alias);
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  for (const graph::BackendKind kind :
       {graph::BackendKind::kReference, graph::BackendKind::kKernel,
        graph::BackendKind::kEngine}) {
    EXPECT_THROW(graph::make_backend(kind)->run(program, plan, config),
                 std::runtime_error);
  }
  // Same program, gate off: runs — and really does produce garbage.  The
  // aliased operands are threshold encodings of one trace, so the AND
  // measures min(a, b) = 0.6 instead of a * b = 0.48.
  config.analyze = false;
  const graph::ExecutionResult result =
      graph::make_backend(graph::BackendKind::kReference)
          ->run(program, plan, config);
  EXPECT_NEAR(result.values[0], 0.6, 0.05);
}

// ---------------------------------------------------------- text format

TEST(TextFormat, RoundTripsPrograms) {
  const std::string text =
      "# demo\n"
      "input x 0.9 group=0\n"
      "input y 0.4 group=1\n"
      "const half 0.5\n"
      "op diff subtract x y\n"
      "op blend saturating-add diff half\n"
      "op gain multiply blend y\n"
      "output gain\n"
      "output diff\n";
  const Program program = parse_program(text);
  ASSERT_EQ(program.node_count(), 6u);
  EXPECT_EQ(program.node(3).name, "diff");
  ASSERT_EQ(program.outputs().size(), 2u);

  const Program again = parse_program(serialize_program(program));
  ASSERT_EQ(again.node_count(), program.node_count());
  for (graph::NodeId id = 0; id < program.node_count(); ++id) {
    EXPECT_EQ(again.node(id).kind, program.node(id).kind);
    EXPECT_EQ(again.node(id).name, program.node(id).name);
    EXPECT_EQ(again.node(id).operands, program.node(id).operands);
    EXPECT_DOUBLE_EQ(again.node(id).value, program.node(id).value);
    EXPECT_EQ(again.node(id).rng_group, program.node(id).rng_group);
  }
  EXPECT_EQ(again.outputs(), program.outputs());
}

TEST(TextFormat, RejectsMalformedInputWithLineNumbers) {
  const auto message_of = [](const std::string& text) {
    try {
      parse_program(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("input x 0.5\nop y frobnicate x\noutput y\n")
                .find("line 2"),
            std::string::npos);
  EXPECT_NE(message_of("input x 0.5\nop y multiply x\noutput y\n")
                .find("takes 2 operands"),
            std::string::npos);
  EXPECT_NE(message_of("input x zzz\noutput x\n").find("malformed number"),
            std::string::npos);
  EXPECT_NE(message_of("input x 0.5\noutput missing\n").find("undefined"),
            std::string::npos);
  EXPECT_NE(message_of("input x 0.5\n").find("no output"), std::string::npos);
}

// --------------------------------------------------------------- report

TEST(Report, JsonCarriesTheLintSchema) {
  const Program program = bernstein_triple();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const AnalysisReport report = analyze(program, plan);
  const std::string json = report.to_json("triple");
  EXPECT_NE(json.find("\"source\": \"triple\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"redundant-fix\""), std::string::npos);
  EXPECT_NE(json.find("\"pairs\""), std::string::npos);
  EXPECT_NE(json.find("\"fragility\""), std::string::npos);
}

}  // namespace
}  // namespace sc::analysis
