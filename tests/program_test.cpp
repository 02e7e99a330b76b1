/// Tests for the operator registry and the registry-program layer: builder
/// validation, named values, constants, n-ary operators, multi-output
/// programs, subgraph composition, exact semantics, per-pair requirements,
/// and planning on operators the planner has no hardcoded knowledge of.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "func/bernstein.hpp"
#include "func/fsm_function.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"

namespace sc::graph {
namespace {

// --- registry -------------------------------------------------------------

TEST(Registry, BuiltinsCoverTheAcceptanceSet) {
  const OperatorRegistry& reg = registry();
  EXPECT_GE(reg.size(), 10u);
  // The Fig. 2 set...
  for (const char* name :
       {"multiply", "scaled-add", "saturating-add", "subtract", "max", "min",
        "divide"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // ...plus operators from outside it (FSM functions, Bernstein, the §IV
  // pipeline stages, bipolar arithmetic).
  for (const char* name :
       {"toggle-add", "multiply-bipolar", "negate-bipolar",
        "scaled-sub-bipolar", "stanh-8", "sexp-8-1", "bernstein-x2-3",
        "gaussian-blur-3x3", "roberts-cross"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
}

TEST(Registry, RequirementsMatchFig2) {
  const OperatorRegistry& reg = registry();
  EXPECT_EQ(reg.find("multiply")->requirement, Requirement::kUncorrelated);
  EXPECT_EQ(reg.find("scaled-add")->requirement, Requirement::kAgnostic);
  EXPECT_EQ(reg.find("saturating-add")->requirement, Requirement::kNegative);
  EXPECT_EQ(reg.find("subtract")->requirement, Requirement::kPositive);
  EXPECT_EQ(reg.find("max")->requirement, Requirement::kPositive);
  EXPECT_EQ(reg.find("min")->requirement, Requirement::kPositive);
  EXPECT_EQ(reg.find("divide")->requirement, Requirement::kPositive);
}

TEST(Registry, PerPairRequirementOverride) {
  const OperatorDef& roberts = *registry().find("roberts-cross");
  // Only the diagonal XOR pairs need positive correlation.
  EXPECT_EQ(roberts.requirement_between(0, 3), Requirement::kPositive);
  EXPECT_EQ(roberts.requirement_between(1, 2), Requirement::kPositive);
  EXPECT_EQ(roberts.requirement_between(0, 1), Requirement::kAgnostic);
  EXPECT_EQ(roberts.requirement_between(2, 3), Requirement::kAgnostic);
}

TEST(Registry, RejectsBadDefinitions) {
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  OperatorDef dup;
  dup.name = "multiply";  // already registered
  dup.exact = [](sc::span<const double> v) { return v[0]; };
  dup.make_evaluator = nullptr;
  EXPECT_THROW(reg.add(dup), std::invalid_argument);

  OperatorDef incomplete;
  incomplete.name = "no-impl";
  EXPECT_THROW(reg.add(incomplete), std::invalid_argument);

  EXPECT_THROW(static_cast<void>(reg.id_of("no-such-operator")),
               std::invalid_argument);
  EXPECT_EQ(reg.find("no-such-operator"), nullptr);
}

TEST(Registry, DuplicateRegistrationIsAHardErrorNamingTheConflict) {
  // A fully *valid* definition under an existing name must still be
  // rejected (RejectsBadDefinitions only covers invalid ones, which trip
  // the completeness checks first), the message must name the conflicting
  // operator, and the registry must be left untouched — no silent
  // shadowing or last-wins.
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  const std::size_t size_before = reg.size();
  const OpId original = reg.id_of("multiply");

  OperatorDef dup;
  dup.name = "multiply";
  dup.arity = 2;
  dup.exact = [](sc::span<const double> v) { return v[0] + v[1]; };
  dup.make_evaluator = [](const OpContext&) -> std::unique_ptr<OpEvaluator> {
    return nullptr;
  };
  try {
    reg.add(std::move(dup));
    FAIL() << "duplicate registration did not throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("multiply"), std::string::npos)
        << "message does not name the conflicting operator: " << error.what();
  }
  EXPECT_EQ(reg.size(), size_before);
  EXPECT_EQ(reg.id_of("multiply"), original);
  // The surviving definition is the original one, not the rejected dup
  // (which claimed exact = a + b).
  const std::vector<double> operands{0.5, 0.5};
  EXPECT_DOUBLE_EQ(reg.def(original).exact(
                       sc::span<const double>(operands.data(), 2)),
                   0.25);
}

TEST(Registry, CustomRegistrationIsLocal) {
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  const std::size_t builtin_count = reg.size();
  register_bernstein(reg, "bernstein-sqrt-4",
                     [](double t) { return std::sqrt(t); }, 4);
  EXPECT_EQ(reg.size(), builtin_count + 1);
  EXPECT_NE(reg.find("bernstein-sqrt-4"), nullptr);
  // The process-wide registry is untouched.
  EXPECT_EQ(registry().find("bernstein-sqrt-4"), nullptr);
}

// --- builder ---------------------------------------------------------------

TEST(Builder, NamedValuesMultiOutputAndExactSemantics) {
  GraphBuilder b;
  const Value x = b.input("x", 0.6, 0);
  const Value y = b.input("y", 0.7, 1);
  const Value prod = b.op("multiply", {x, y});
  const Value sum = b.op("scaled-add", {x, y});
  b.output(prod, "product").output(sum, "sum");
  const Program p = b.build();

  EXPECT_EQ(p.outputs().size(), 2u);
  ASSERT_NE(p.find("product"), kInvalidNode);
  ASSERT_NE(p.find("sum"), kInvalidNode);
  EXPECT_EQ(p.find("missing"), kInvalidNode);
  EXPECT_DOUBLE_EQ(p.exact_value(p.find("product")), 0.42);
  EXPECT_DOUBLE_EQ(p.exact_value(p.find("sum")), 0.65);
}

TEST(Builder, ExactSemanticsOfExtendedOperators) {
  GraphBuilder b;
  const Value x = b.input("x", 0.3, 0);
  const Value y = b.input("y", 0.6, 1);
  const Value quot = b.op("divide", {x, y});
  const Value bip = b.op("multiply-bipolar", {x, y});
  const Value neg = b.op("negate-bipolar", {x});
  const Value th = b.op("stanh-8", {x});
  const Program p = b.build();

  EXPECT_DOUBLE_EQ(p.exact_value(quot.id), 0.5);  // 0.3 / 0.6
  // (2*0.3-1)(2*0.6-1) = -0.08 -> p = 0.46.
  EXPECT_NEAR(p.exact_value(bip.id), 0.46, 1e-12);
  EXPECT_DOUBLE_EQ(p.exact_value(neg.id), 0.7);
  EXPECT_NEAR(p.exact_value(th.id),
              0.5 * (func::stanh_value(2 * 0.3 - 1, 8) + 1), 1e-12);
}

TEST(Builder, BernsteinExactMatchesPolynomialAtEqualCopies) {
  GraphBuilder b;
  const Value x = b.input("x", 0.4, 0);
  const Value out = b.op("bernstein-x2-3", {x, x, x});
  const Program p = b.build();
  const std::vector<double> coefficients =
      func::bernstein_coefficients([](double t) { return t * t; }, 3);
  const double expected = func::bernstein_value(
      sc::span<const double>(coefficients.data(), coefficients.size()), 0.4);
  EXPECT_NEAR(p.exact_value(out.id), expected, 1e-12);
}

TEST(Builder, ValidatesEagerly) {
  GraphBuilder b;
  const Value x = b.input("x", 0.5, 0);
  EXPECT_THROW(b.op("no-such-operator", {x, x}), std::invalid_argument);
  EXPECT_THROW(b.op("multiply", {x}), std::invalid_argument);  // arity
  EXPECT_THROW(b.input("x", 0.2, 1), std::invalid_argument);   // dup name
  EXPECT_THROW(b.input("c", 0.2, kConstantGroupBase),          // group range
               std::invalid_argument);
}

TEST(Builder, ConstantsAreProvablyIndependent) {
  GraphBuilder b;
  const Value x = b.input("x", 0.5, 0);
  const Value c1 = b.constant(0.25);
  const Value c2 = b.constant(0.25);
  const Program p = b.build();
  EXPECT_EQ(classify(p, c1.id, c2.id), Relation::kIndependent);
  EXPECT_EQ(classify(p, x.id, c1.id), Relation::kIndependent);
  EXPECT_EQ(classify(p, c1.id, c1.id), Relation::kPositive);  // same stream
}

TEST(Builder, SubgraphAppendComposesAndUniquifiesNames) {
  // Reusable block: e = |a*b - c|.
  GraphBuilder sub;
  const Value a = sub.input("a", 0.0, 0);
  const Value bb = sub.input("b", 0.0, 1);
  const Value c = sub.input("c", 0.0, 2);
  sub.output(sub.op("subtract", {sub.op("multiply", {a, bb}), c}), "e");
  const Program block = sub.build();

  GraphBuilder main;
  const Value x = main.input("x", 0.8, 0);
  const Value y = main.input("y", 0.5, 1);
  const Value z = main.input("z", 0.2, 2);
  const auto first = main.append(block, {x, y, z});
  const auto second = main.append(block, {y, z, x});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  main.output(main.op("scaled-add", {first[0], second[0]}), "combined");
  const Program p = main.build();

  // |0.8*0.5 - 0.2| = 0.2 and |0.5*0.2 - 0.8| = 0.7 -> 0.5*(0.2+0.7).
  EXPECT_NEAR(p.exact_value(p.find("combined")), 0.45, 1e-12);
  // Both instances of "e" survive under distinct names.
  EXPECT_NE(p.find("e"), kInvalidNode);
  EXPECT_NE(p.find("e.2"), kInvalidNode);
}

TEST(Builder, OutputNameCollisionsThrow) {
  GraphBuilder b;
  const Value x = b.input("x", 0.5, 0);
  const Value y = b.input("y", 0.6, 1);
  const Value prod = b.op("multiply", {x, y});
  b.output(prod, "out");
  // A second output may not steal an existing value's name...
  EXPECT_THROW(b.output(y, "x"), std::invalid_argument);
  EXPECT_THROW(b.output(y, "out"), std::invalid_argument);
  // ...but re-marking the same value under its own name is fine.
  b.output(prod, "out");
  EXPECT_EQ(b.build().outputs().size(), 2u);
}

TEST(Builder, AppendChecksArityAcrossRegistries) {
  // The same operator name registered with different arities in two
  // registries: append() must refuse to splice rather than execute a
  // 4-ary evaluator on 3 operands.
  OperatorRegistry reg3 = OperatorRegistry::with_builtins();
  OperatorRegistry reg4 = OperatorRegistry::with_builtins();
  register_bernstein(reg3, "poly", [](double t) { return t; }, 3);
  register_bernstein(reg4, "poly", [](double t) { return t; }, 4);

  GraphBuilder sub(reg3);
  const Value a = sub.input("a", 0.5, 0);
  sub.output(sub.op("poly", {a, a, a}));
  const Program block = sub.build();

  GraphBuilder main(reg4);
  const Value x = main.input("x", 0.5, 0);
  EXPECT_THROW(main.append(block, {x}), std::invalid_argument);
}

TEST(Builder, AppendArgumentCountIsChecked) {
  GraphBuilder sub;
  sub.output(sub.op("multiply", {sub.input("a", 0.5, 0),
                                 sub.input("b", 0.5, 1)}));
  const Program block = sub.build();
  GraphBuilder main;
  const Value x = main.input("x", 0.5, 0);
  EXPECT_THROW(main.append(block, {x}), std::invalid_argument);
}

// --- planning over registry programs --------------------------------------

TEST(ProgramPlanner, NAryOperatorGetsPairwiseFixes) {
  // Three copies of one stream into the Bernstein unit: every copy pair is
  // provably positive, the unit needs SCC = 0, so the manipulation plan
  // inserts one decorrelator per pair.
  GraphBuilder b;
  const Value x = b.input("x", 0.4, 0);
  b.output(b.op("bernstein-x2-3", {x, x, x}));
  const Program p = b.build();

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  EXPECT_TRUE(plan.violations.empty());
  EXPECT_EQ(plan.inserted_units, 3u);  // pairs (0,1), (0,2), (1,2)
  for (const PairFix& fix : plan.fixes) {
    EXPECT_EQ(fix.fix, FixKind::kDecorrelator);
    EXPECT_EQ(fix.relation, Relation::kPositive);
  }
  // Without a strategy the violations are recorded per op.
  const ProgramPlan none = plan_program(p, Strategy::kNone);
  EXPECT_EQ(none.violations.size(), 1u);
}

TEST(ProgramPlanner, RobertsCrossDiagonalsGetSynchronizers) {
  GraphBuilder b;
  const Value p00 = b.input("p00", 0.8, 0);
  const Value p01 = b.input("p01", 0.3, 0);  // shared bank group
  const Value p10 = b.input("p10", 0.5, 1);
  const Value p11 = b.input("p11", 0.4, 1);
  b.output(b.op("roberts-cross", {p00, p01, p10, p11}));
  const Program p = b.build();

  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  // Diagonals (0,3) and (1,2) cross the bank groups -> independent, not
  // positive -> synchronizer each; the agnostic pairs contribute nothing.
  EXPECT_EQ(plan.inserted_units, 2u);
  for (const PairFix& fix : plan.fixes) {
    if (fix.fix == FixKind::kNone) continue;
    EXPECT_EQ(fix.fix, FixKind::kSynchronizer);
    EXPECT_TRUE((fix.operand_a == 0 && fix.operand_b == 3) ||
                (fix.operand_a == 1 && fix.operand_b == 2));
  }
}

// --- evaluator word paths -------------------------------------------------

using Streams = std::vector<Bitstream>;

/// Bits [offset, offset + take) of `s`.
Bitstream slice(const Bitstream& s, std::size_t offset, std::size_t take) {
  Bitstream out(take);
  for (std::size_t i = 0; i < take; ++i) out.set(i, s.get(offset + i));
  return out;
}

/// Operand streams of `length` bits, each at its own random density.
Streams random_operands(unsigned arity, std::size_t length,
                        std::mt19937_64& gen) {
  Streams out;
  for (unsigned k = 0; k < arity; ++k) {
    std::bernoulli_distribution bit(
        std::uniform_real_distribution<double>(0.0, 1.0)(gen));
    Bitstream s(length);
    for (std::size_t i = 0; i < length; ++i) s.set(i, bit(gen));
    out.push_back(std::move(s));
  }
  return out;
}

/// Runs a fresh evaluator through `step()` for the first `serial` cycles,
/// then through the virtual process() over consecutive chunks of the given
/// sizes (the last chunk takes what is left).  Chunk outputs start
/// all-ones, so a word path must write every word it owns, and must leave
/// the bits past the chunk's end clear.
Bitstream drive(const OperatorDef& def, const OpContext& ctx,
                const Streams& ins, std::size_t serial,
                const std::vector<std::size_t>& chunks) {
  const std::unique_ptr<OpEvaluator> eval = def.make_evaluator(ctx);
  const std::size_t n = ins[0].size();
  eval->begin(n);
  Bitstream out(n);
  bool bits[kMaxArity];
  for (std::size_t i = 0; i < serial; ++i) {
    for (std::size_t k = 0; k < ins.size(); ++k) bits[k] = ins[k].get(i);
    out.set(i, eval->step(bits));
  }
  std::size_t c = 0;
  for (std::size_t pos = serial; pos < n;) {
    const std::size_t take =
        c < chunks.size() ? std::min(chunks[c++], n - pos) : n - pos;
    Streams chunk_ins;
    for (const Bitstream& s : ins) chunk_ins.push_back(slice(s, pos, take));
    std::vector<const Bitstream*> ptrs;
    for (const Bitstream& s : chunk_ins) ptrs.push_back(&s);
    Bitstream chunk(take, true);
    eval->process(sc::span<const Bitstream* const>(ptrs.data(), ptrs.size()),
                  chunk);
    if (take % 64 != 0) {
      EXPECT_EQ(chunk.words().back() >> (take % 64), 0u)
          << def.name << ": bits set past the chunk's end";
    }
    for (std::size_t i = 0; i < take; ++i) out.set(pos + i, chunk.get(i));
    pos += take;
  }
  return out;
}

/// Every word path against the reference semantics: the non-virtual
/// OpEvaluator::process (the step() loop the reference backend runs) over
/// the whole stream, versus the virtual process() whole, in 64-bit chunks,
/// in random multiple-of-64 chunks with an odd tail, and after k serial
/// step() cycles.  Lengths cross the 4096-cycle RNG block and the
/// width-16 LFSR period.
void expect_word_path_matches_step(const OperatorDef& def) {
  for (const unsigned width : {4u, 8u, 12u, 16u, 32u}) {
    for (const std::size_t length :
         {1u, 63u, 64u, 65u, 4095u, 4097u, 70001u}) {
      const std::string label = def.name + " width " + std::to_string(width) +
                                " length " + std::to_string(length);
      std::mt19937_64 gen(width * 1000003u + length);
      const Streams ins = random_operands(def.arity, length, gen);
      const OpContext ctx{length, width, /*node=*/7, /*base_seed=*/0x5eed};

      const std::unique_ptr<OpEvaluator> ref = def.make_evaluator(ctx);
      ref->begin(length);
      std::vector<const Bitstream*> ptrs;
      for (const Bitstream& s : ins) ptrs.push_back(&s);
      Bitstream expected(length, true);
      ref->OpEvaluator::process(
          sc::span<const Bitstream* const>(ptrs.data(), ptrs.size()),
          expected);

      std::vector<std::size_t> random_chunks;
      for (std::size_t sum = 0; sum + 64 <= length;) {
        random_chunks.push_back(64 * (1 + gen() % 80));
        sum += random_chunks.back();
      }
      const std::size_t serial = gen() % (length + 1);

      EXPECT_TRUE(drive(def, ctx, ins, 0, {}) == expected) << label
                                                           << " whole";
      EXPECT_TRUE(drive(def, ctx, ins, 0,
                        std::vector<std::size_t>(length / 64 + 1, 64)) ==
                  expected)
          << label << " 64-bit chunks";
      EXPECT_TRUE(drive(def, ctx, ins, 0, random_chunks) == expected)
          << label << " random chunks";
      EXPECT_TRUE(drive(def, ctx, ins, serial, {}) == expected)
          << label << " " << serial << " step() cycles first";
    }
  }
}

TEST(OpEvaluator, EveryBuiltinWordPathMatchesStep) {
  for (const std::string& name : registry().names()) {
    expect_word_path_matches_step(*registry().find(name));
  }
}

TEST(OpEvaluator, BernsteinWordPathMatchesStepUpToMaxArity) {
  // Degree 15 is the widest unit a registry accepts (15 copies plus 16
  // coefficient streams reach kMaxArity).
  OperatorRegistry reg;
  for (const std::size_t degree : {1u, 2u, 7u, 15u}) {
    // f(t) = t has coefficients j / degree: zero and full-scale levels.
    const std::string name = "bernstein-id-" + std::to_string(degree);
    register_bernstein(reg, name, [](double t) { return t; }, degree);
    expect_word_path_matches_step(*reg.find(name));
  }
}

}  // namespace
}  // namespace sc::graph
