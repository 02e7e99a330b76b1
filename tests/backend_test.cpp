/// Tests for the pluggable execution backends and the seed-derivation
/// scheme: differential bit-identity of Reference / Kernel / Engine on the
/// same seeded Program (including randomly generated registry programs),
/// the planner-as-a-property check, seed distinctness regression, chunked
/// long-stream execution, and end-to-end accuracy through operators the
/// executor has no hardcoded knowledge of.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "convert/regenerator.hpp"
#include "core/decorrelator.hpp"
#include "engine/session.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "graph/seeds.hpp"
#include "graph_fixtures.hpp"
#include "img/sc_pipeline.hpp"
#include "obs/telemetry.hpp"
#include "rng/lfsr.hpp"

namespace sc::graph {
namespace {

using fixtures::random_program;

/// Mirrors the planner's satisfaction rule for the property test (also
/// exported as graph::requirement_satisfied; kept spelled out here so the
/// property test does not certify the implementation with itself).
bool provably_satisfied(Requirement requirement, Relation relation) {
  switch (requirement) {
    case Requirement::kAgnostic:
      return true;
    case Requirement::kUncorrelated:
      return relation == Relation::kIndependent;
    case Requirement::kPositive:
      return relation == Relation::kPositive;
    case Requirement::kNegative:
      return false;
  }
  return false;
}

void expect_identical(const ExecutionResult& a, const ExecutionResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.streams.size(), b.streams.size()) << label;
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    EXPECT_EQ(a.streams[s], b.streams[s]) << label << " stream " << s;
  }
  ASSERT_EQ(a.values.size(), b.values.size()) << label;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values[i], b.values[i]) << label << " value " << i;
  }
}

// --- satellite: seed derivation --------------------------------------------

TEST(SeedDerivation, AllSeedsOfALargePlanAreDistinct) {
  // Regression for the executor's old ad-hoc offsets (`seed + 2001 + id`
  // vs `seed + 2001 + 2*id`), whose affine families collide across fix
  // kinds and node ids.  Every derived seed of a large plan must be
  // unique.
  std::mt19937_64 gen(7);
  std::vector<Value> dummy;
  GraphBuilder b;
  std::vector<Value> values;
  for (unsigned i = 0; i < 48; ++i) {
    values.push_back(b.input("i" + std::to_string(i), 0.25 + 0.01 * (i % 50),
                             i % 8));
  }
  for (unsigned i = 0; i < 300; ++i) {
    const char* name = (i % 3 == 0) ? "multiply"
                       : (i % 3 == 1) ? "subtract"
                                      : "scaled-add";
    values.push_back(
        b.op(name, {values[gen() % values.size()],
                    values[gen() % values.size()]}));
  }
  b.output(values.back());
  const Program p = b.build();

  for (const Strategy strategy :
       {Strategy::kManipulation, Strategy::kRegeneration}) {
    const ProgramPlan plan = plan_program(p, strategy);
    ASSERT_GT(plan.inserted_units, 50u);
    // The 32-bit folds the LFSRs actually consume (the 64-bit mixes are
    // distinct by construction; the fold is where a birthday or
    // 0->1-remap collision could alias two generators).
    std::vector<std::uint32_t> seeds;
    for (const SeedSite& site : seed_sites(p, plan)) {
      seeds.push_back(site.seed32(ExecConfig{}.seed));
    }
    ASSERT_GT(seeds.size(), 100u);
    std::set<std::uint32_t> unique(seeds.begin(), seeds.end());
    EXPECT_EQ(unique.size(), seeds.size())
        << to_string(strategy) << ": " << seeds.size() - unique.size()
        << " colliding derived seeds";
  }

  // The 32-bit fold never returns the absorbing LFSR seed 0.
  for (std::uint32_t node = 0; node < 1000; ++node) {
    for (const auto role : {seeds::Role::kGroupTrace, seeds::Role::kFixAuxA,
                            seeds::Role::kFixAuxB, seeds::Role::kOpPrivate}) {
      EXPECT_NE(seeds::derive_seed32(3, node, role, node % 5), 0u);
    }
  }
}

TEST(SeedDerivation, DistinctRolesAndLanesNeverAlias) {
  // The old bug shape: `2001 + id` (shared regen) meeting `2001 + 2*id`
  // (distinct regen) at id' = 2*id.  In the packed-key scheme the role and
  // lane fields occupy disjoint bits, so cross-family aliasing is
  // impossible by construction.
  std::set<std::uint64_t> seen;
  std::size_t count = 0;
  for (std::uint32_t node = 0; node < 200; ++node) {
    for (unsigned role = 1; role <= 4; ++role) {
      for (std::uint32_t lane = 0; lane < 4; ++lane) {
        seen.insert(seeds::derive_seed(
            42, node, static_cast<seeds::Role>(role), lane));
        ++count;
      }
    }
  }
  EXPECT_EQ(seen.size(), count);
}

TEST(SeedSites, ExecutorDrawsTheListedFixGenerators) {
  // Rebuilds each planned fix by hand from fix_seed_sites and checks the
  // kernel backend's gate output against it bit for bit, so the
  // generators the executor constructs are the ones the list — and with
  // it the seed audit and the analyzer — names, rotation included.
  struct Case {
    const char* op;
    unsigned group_y;
    Strategy strategy;
    FixKind fix;
  };
  ExecConfig config;
  config.stream_length = 4133;
  config.width = 10;
  config.seed = 11;
  for (const Case& c :
       {Case{"multiply", 0, Strategy::kManipulation, FixKind::kDecorrelator},
        Case{"multiply", 0, Strategy::kRegeneration,
             FixKind::kRegenerateDistinct},
        Case{"max", 1, Strategy::kRegeneration,
             FixKind::kRegenerateShared}}) {
    GraphBuilder b;
    const Value x = b.input("x", 0.7, 0);
    const Value y = b.input("y", 0.4, c.group_y);
    const Value out = b.op(c.op, {x, y});
    b.output(out);
    const Program p = b.build();
    const ProgramPlan plan = plan_program(p, c.strategy);
    ASSERT_EQ(plan.inserted_units, 1u) << to_string(c.fix);
    const PairFix& fix = plan.fixes[0];
    ASSERT_EQ(fix.fix, c.fix);
    const ExecutionResult run =
        make_backend(BackendKind::kKernel)->run(p, plan, config);

    std::vector<std::unique_ptr<rng::Lfsr>> sources;
    for (const SeedSite& site :
         fix_seed_sites(fix, p.node(out.id).seed_tag)) {
      sources.push_back(std::make_unique<rng::Lfsr>(
          config.width, site.seed32(config.seed), site.rotation));
    }
    Bitstream a = run.streams[x.id];
    Bitstream b_stream = run.streams[y.id];
    if (c.fix == FixKind::kDecorrelator) {
      ASSERT_EQ(sources.size(), 2u);
      core::Decorrelator decorrelator(
          config.shuffle_depth, std::move(sources[0]), std::move(sources[1]));
      const sc::StreamPair fixed = core::apply(decorrelator, a, b_stream);
      a = fixed.x;
      b_stream = fixed.y;
    } else if (c.fix == FixKind::kRegenerateDistinct) {
      ASSERT_EQ(sources.size(), 2u);
      a = convert::regenerate(a, *sources[0]);
      b_stream = convert::regenerate(b_stream, *sources[1]);
    } else {
      ASSERT_EQ(sources.size(), 1u);
      const std::vector<Bitstream> bus =
          convert::regenerate_bus_correlated({a, b_stream}, *sources[0]);
      a = bus[0];
      b_stream = bus[1];
    }
    const Bitstream expected =
        c.fix == FixKind::kRegenerateShared ? (a | b_stream) : (a & b_stream);
    EXPECT_EQ(run.streams[out.id], expected) << to_string(c.fix);
  }
}

// --- satellite: planner property -------------------------------------------

TEST(PlannerProperty, ManipulationLeavesNoProvablyViolatedPair) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    std::mt19937_64 gen(seed);
    const Program p = random_program(gen);
    const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
    EXPECT_TRUE(plan.violations.empty()) << "program seed " << seed;
    for (const PairFix& fix : plan.fixes) {
      if (provably_satisfied(fix.requirement, fix.relation)) continue;
      EXPECT_NE(fix.fix, FixKind::kNone)
          << "program seed " << seed << " node " << fix.op_node << " pair ("
          << fix.operand_a << ", " << fix.operand_b << ") requirement "
          << to_string(fix.requirement) << " left unfixed";
    }
    // And the no-op strategy records exactly the unsatisfied ops.
    const ProgramPlan none = plan_program(p, Strategy::kNone);
    std::set<NodeId> violated(none.violations.begin(), none.violations.end());
    for (const PairFix& fix : none.fixes) {
      if (!provably_satisfied(fix.requirement, fix.relation)) {
        EXPECT_TRUE(violated.count(fix.op_node) == 1)
            << "program seed " << seed;
      }
    }
  }
}

// --- satellite: backend differential ---------------------------------------

TEST(Backends, BitIdenticalOnRandomProgramsUnderEveryStrategy) {
  const auto reference = make_backend(BackendKind::kReference);
  const auto kernel = make_backend(BackendKind::kKernel);
  const auto engine = make_backend(BackendKind::kEngine);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 gen(1000 + seed);
    const Program p = random_program(gen);
    for (const Strategy strategy :
         {Strategy::kNone, Strategy::kManipulation, Strategy::kRegeneration}) {
      const ProgramPlan plan = plan_program(p, strategy);
      ExecConfig config;
      config.stream_length = 300;  // not a word multiple
      config.seed = static_cast<std::uint32_t>(77 + seed);
      const ExecutionResult r = reference->run(p, plan, config);
      const ExecutionResult k = kernel->run(p, plan, config);
      const ExecutionResult e = engine->run(p, plan, config);
      const std::string label =
          "seed " + std::to_string(seed) + " " + to_string(strategy);
      expect_identical(r, k, label + " kernel");
      expect_identical(r, e, label + " engine");
    }
  }
}

TEST(Backends, EngineMatchesKernelAcrossChunkBoundaries) {
  std::mt19937_64 gen(424242);
  const Program p = random_program(gen, 10);
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);

  // Tiny session chunks force many boundary crossings (1000 = 7x128 + 104,
  // with a non-word tail); the pooled engine backend must still match the
  // whole-stream kernel path bit for bit.
  obs::Telemetry telemetry;
  engine::Session session({2, /*chunk_bits=*/128, 0x5eed, &telemetry});
  const auto engine_backend = make_engine_backend(session);
  const auto kernel_backend = make_backend(BackendKind::kKernel);

  ExecConfig config;
  config.stream_length = 1000;
  const ExecutionResult chunked = engine_backend->run(p, plan, config);
  const ExecutionResult whole = kernel_backend->run(p, plan, config);
  expect_identical(chunked, whole, "chunked-vs-whole");
  const obs::MetricsSnapshot snapshot = telemetry.snapshot();
  EXPECT_EQ(snapshot.counters.at("engine.chunked_runs"), 1u);
  EXPECT_EQ(snapshot.counters.at("engine.chunks"), 8u);
  EXPECT_EQ(snapshot.counters.at("engine.stream_bits"), 1000u);
}

TEST(Backends, EngineRunsLongStreamsWithoutMaterializing) {
  GraphBuilder b;
  const Value x = b.input("x", 0.6, 0);
  const Value y = b.input("y", 0.5, 0);  // same group: needs a decorrelator
  const Value z = b.input("z", 0.3, 1);
  b.output(b.op("scaled-add", {b.op("multiply", {x, y}), z}), "out");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);

  ExecConfig config;
  config.stream_length = std::size_t{1} << 18;  // 256 Kbit per node
  config.width = 16;  // long runs need a long-period generator (2^16 - 1)
  config.keep_streams = false;
  const ExecutionResult streamed =
      make_backend(BackendKind::kEngine)->run(p, plan, config);
  EXPECT_TRUE(streamed.streams.empty());

  config.keep_streams = true;
  const ExecutionResult whole =
      make_backend(BackendKind::kKernel)->run(p, plan, config);
  ASSERT_EQ(streamed.values.size(), whole.values.size());
  for (std::size_t i = 0; i < whole.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed.values[i], whole.values[i]);
  }
  // A long stream averages the quantization away: 0.5*(0.6*0.5) + 0.15.
  EXPECT_NEAR(streamed.values[0], 0.3, 0.01);
}

TEST(Backends, InvalidWidthsAndShuffleDepthsThrow) {
  // Run unchecked, these give plausible-looking wrong values in Release:
  // multiply(0.6, 0.3) reads ~1.0 at widths 2 and 33, a depth-0
  // decorrelator is a wire, and so are depth-0 (de)synchronizers:
  // max(0.6, 0.3) and saturating-add(0.6, 0.3) both read 0.73 at 4096
  // bits (exact 0.6 and 0.9).  Widths >= 64 must throw before anything
  // shifts by them (analyzer included).
  EXPECT_THROW(rng::Lfsr(0), std::invalid_argument);

  // One op over x and y; y on x's RNG group or on its own.
  const auto planned = [](const char* op, unsigned y_group, FixKind fix) {
    GraphBuilder b;
    const Value x = b.input("x", 0.6, 0);
    const Value y = b.input("y", 0.3, y_group);
    b.output(b.op(op, {x, y}));
    Program p = b.build();
    ProgramPlan plan = plan_program(p, Strategy::kManipulation);
    EXPECT_TRUE(std::any_of(plan.fixes.begin(), plan.fixes.end(),
                            [&](const PairFix& f) { return f.fix == fix; }))
        << op;
    return std::pair{std::move(p), std::move(plan)};
  };
  const auto [p, plan] = planned("multiply", 0, FixKind::kDecorrelator);
  const auto [max_p, max_plan] = planned("max", 1, FixKind::kSynchronizer);
  const auto [add_p, add_plan] =
      planned("saturating-add", 1, FixKind::kDesynchronizer);

  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const auto backend = make_backend(kind);
    for (const unsigned width : {2u, 33u, 64u, 100u}) {
      ExecConfig config;
      config.width = width;
      EXPECT_THROW(backend->run(p, plan, config), std::invalid_argument)
          << backend->name() << " width " << width;
    }
    ExecConfig analyzed;
    analyzed.width = 64;
    analyzed.analyze = true;
    EXPECT_THROW(backend->run(p, plan, analyzed), std::invalid_argument)
        << backend->name() << " analyzed width 64";
    ExecConfig config;
    config.shuffle_depth = 0;
    EXPECT_THROW(backend->run(p, plan, config), std::invalid_argument)
        << backend->name() << " shuffle depth 0";
    config = ExecConfig{};
    config.sync_depth = 0;
    EXPECT_THROW(backend->run(max_p, max_plan, config), std::invalid_argument)
        << backend->name() << " synchronizer depth 0";
    EXPECT_THROW(backend->run(add_p, add_plan, config), std::invalid_argument)
        << backend->name() << " desynchronizer depth 0";
  }
}

// --- acceptance: operators the executor has no hardcoded knowledge of ------

TEST(CustomOperator, PlannedFixedAndExecutedThroughTheRegistry) {
  // A NAND "multiplier" (1 - a*b for uncorrelated operands) registered at
  // test scope: neither the planner nor any backend has ever heard of it,
  // yet the manipulation plan inserts a decorrelator and restores
  // accuracy.
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  OperatorDef def;
  def.name = "nand-complement";
  def.arity = 2;
  def.requirement = Requirement::kUncorrelated;
  def.exact = [](sc::span<const double> v) { return 1.0 - v[0] * v[1]; };
  class NandEvaluator final : public OpEvaluator {
   public:
    bool step(const bool* in) override { return !(in[0] && in[1]); }
  };
  def.make_evaluator = [](const OpContext&) {
    return std::make_unique<NandEvaluator>();
  };
  reg.add(std::move(def));

  GraphBuilder b(reg);
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.5, 0);  // same trace: SCC = +1
  b.output(b.op("nand-complement", {x, y}), "out");
  const Program p = b.build();

  const ProgramPlan broken_plan = plan_program(p, Strategy::kNone);
  const ProgramPlan fixed_plan = plan_program(p, Strategy::kManipulation);
  ASSERT_EQ(fixed_plan.inserted_units, 1u);
  EXPECT_EQ(fixed_plan.fixes[0].fix, FixKind::kDecorrelator);

  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const auto backend = make_backend(kind);
    const double broken = backend->run(p, broken_plan, {}).mean_abs_error;
    const double fixed = backend->run(p, fixed_plan, {}).mean_abs_error;
    // Same-trace NAND computes 1 - min(a,b) = 0.5, exact is 0.65.
    EXPECT_GT(broken, 0.10) << backend->name();
    EXPECT_LT(fixed, 0.05) << backend->name();
  }
}

TEST(CustomOperator, ReferenceStepsEveryCycleAndTheOthersTakeTheOverride) {
  // Every builtin process() override is bit-identical to step(), so no
  // identity test can tell which datapath a backend ran.  This operator
  // counts both: the reference backend must step every cycle through the
  // base OpEvaluator::process, and the kernel and engine backends must
  // take the override.
  struct Calls {
    std::atomic<std::size_t> steps{0};
    std::atomic<std::size_t> overrides{0};
  };
  class CountingAnd final : public OpEvaluator {
   public:
    explicit CountingAnd(Calls& calls) : calls_(&calls) {}
    bool step(const bool* in) override {
      ++calls_->steps;
      return in[0] && in[1];
    }
    void process(sc::span<const Bitstream* const> ins,
                 Bitstream& out) override {
      ++calls_->overrides;
      out = *ins[0] & *ins[1];
    }

   private:
    Calls* calls_;
  };
  Calls calls;
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  OperatorDef def;
  def.name = "counting-and";
  def.arity = 2;
  def.exact = [](sc::span<const double> v) { return v[0] * v[1]; };
  def.make_evaluator = [&calls](const OpContext&) {
    return std::make_unique<CountingAnd>(calls);
  };
  reg.add(std::move(def));

  GraphBuilder b(reg);
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.5, 1);
  b.output(b.op("counting-and", {x, y}), "out");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kNone);
  ExecConfig config;
  config.stream_length = 1000;

  engine::Session session({2, /*chunk_bits=*/256, 0x5eed});
  const struct {
    std::unique_ptr<ExecutorBackend> backend;
    std::size_t steps;
    std::size_t overrides;
  } expected[] = {
      {make_backend(BackendKind::kReference), 1000, 0},
      {make_backend(BackendKind::kKernel), 0, 1},
      {make_backend(BackendKind::kEngine), 0, 1},  // one default-size chunk
      {make_engine_backend(session), 0, 4},        // 3 x 256 + 232 bits
  };
  for (const auto& entry : expected) {
    calls.steps = 0;
    calls.overrides = 0;
    entry.backend->run(p, plan, config);
    EXPECT_EQ(calls.steps, entry.steps) << entry.backend->name();
    EXPECT_EQ(calls.overrides, entry.overrides) << entry.backend->name();
  }
}

TEST(Bernstein, PlannerBuildsTheDecorrelatorChainAutomatically) {
  // Feeding one stream to every copy input reproduces the "shared source"
  // failure of func/bernstein.hpp; the planner's pairwise decorrelators
  // recover the polynomial — the paper's fix, discovered from the
  // registry requirement alone.
  GraphBuilder b;
  const Value x = b.input("x", 0.5, 0);
  b.output(b.op("bernstein-x2-3", {x, x, x}), "fx");
  const Program p = b.build();

  ExecConfig config;
  config.stream_length = 2048;
  const auto backend = make_backend(BackendKind::kKernel);
  const double broken =
      backend->run(p, plan_program(p, Strategy::kNone), config)
          .mean_abs_error;
  const double fixed =
      backend->run(p, plan_program(p, Strategy::kManipulation), config)
          .mean_abs_error;
  EXPECT_GT(broken, 0.1);   // popcount collapses to 0 or n
  EXPECT_LT(fixed, 0.06);   // decorrelated copies track x^2 = 0.25
  EXPECT_LT(fixed, broken * 0.5);
}

TEST(WindowProgram, PipelineStagesComposeAndPlanLikeThePaper) {
  std::array<double, 16> pixels{};
  for (std::size_t i = 0; i < 16; ++i) {
    pixels[i] = (i % 4) * 0.25 + (i / 4) * 0.05;  // a soft gradient
  }
  const Program p = img::window_program(pixels);
  EXPECT_NEAR(p.exact_value(p.find("edge")), img::window_reference(pixels),
              1e-12);

  // The planner rediscovers the paper's Table IV synchronizer variant: the
  // Roberts diagonals see computation-induced correlation (shared blur
  // ancestry) and get a synchronizer each.
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  EXPECT_EQ(plan.inserted_units, 2u);
  for (const PairFix& fix : plan.fixes) {
    if (fix.fix == FixKind::kNone) continue;
    EXPECT_EQ(fix.fix, FixKind::kSynchronizer);
    EXPECT_EQ(fix.relation, Relation::kUnknown);
  }

  ExecConfig config;
  config.stream_length = 4096;
  const auto backend = make_backend(BackendKind::kKernel);
  const double fixed = backend->run(p, plan, config).mean_abs_error;
  const double broken =
      backend->run(p, plan_program(p, Strategy::kNone), config)
          .mean_abs_error;
  EXPECT_LT(fixed, 0.05);
  EXPECT_LE(fixed, broken + 0.01);  // never worse than unmanaged
}

TEST(WindowProgram, AllBackendsAgreeBitForBit) {
  // The blur and Roberts-cross word paths against the reference backend's
  // step() loop, whole-stream and chunked (a 64-bit chunk per process()
  // call, and the 4096-bit RNG block), at the operating point's 2^16 bits
  // and at a length with an odd tail.
  std::array<double, 16> pixels{};
  for (std::size_t i = 0; i < 16; ++i) {
    pixels[i] = (i % 4) * 0.25 + (i / 4) * 0.05;
  }
  const Program p = img::window_program(pixels);
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  const auto reference = make_backend(BackendKind::kReference);
  const auto kernel = make_backend(BackendKind::kKernel);
  for (const std::size_t length : {std::size_t{1} << 16, std::size_t{4097}}) {
    ExecConfig config;
    config.stream_length = length;
    config.width = 16;
    const ExecutionResult r = reference->run(p, plan, config);
    const std::string label = "length " + std::to_string(length);
    expect_identical(r, kernel->run(p, plan, config), label + " kernel");
    for (const std::size_t chunk_bits : {64u, 4096u}) {
      engine::Session session({1, chunk_bits, 0x5eed});
      expect_identical(r, make_engine_backend(session)->run(p, plan, config),
                       label + " engine chunk " + std::to_string(chunk_bits));
    }
  }
}

TEST(Backends, FactoryNamesAreStable) {
  EXPECT_EQ(make_backend(BackendKind::kReference)->name(), "reference");
  EXPECT_EQ(make_backend(BackendKind::kKernel)->name(), "kernel");
  EXPECT_EQ(make_backend(BackendKind::kEngine)->name(), "engine");
}

}  // namespace
}  // namespace sc::graph
