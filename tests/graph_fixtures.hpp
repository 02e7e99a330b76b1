/// \file graph_fixtures.hpp
/// Shared registry-program fixtures for the graph/opt test suites and the
/// optimizer bench: the 16-ary product operator + fan-out program behind
/// the chain-decorrelator acceptance criterion, the bench's other two
/// optimizer workloads, and the random registry program generator used by
/// the differential/property tests.  One definition, so the regression
/// tests and the CI bench self-checks can never drift apart on what
/// workload they validate.

#pragma once

#include <array>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "hw/netlist.hpp"
#include "img/sc_pipeline.hpp"

namespace sc::graph::fixtures {

/// Builtins plus a 16-ary product operator (AND across all operands,
/// mutually-uncorrelated requirement) — the widest same-source fan-out a
/// registry allows (kMaxArity), for the chain regression and bench.
inline const OperatorRegistry& wide_registry() {
  static const OperatorRegistry* reg = [] {
    auto* r = new OperatorRegistry(OperatorRegistry::with_builtins());
    OperatorDef def;
    def.name = "product-16";
    def.arity = 16;
    def.requirement = Requirement::kUncorrelated;
    def.exact = [](sc::span<const double> v) {
      double product = 1.0;
      for (double x : v) product *= x;
      return product;
    };
    class AndAll final : public OpEvaluator {
     public:
      bool step(const bool* in) override {
        for (unsigned k = 0; k < 16; ++k) {
          if (!in[k]) return false;
        }
        return true;
      }
    };
    def.make_evaluator = [](const OpContext&) {
      return std::make_unique<AndAll>();
    };
    def.netlist = [](unsigned) {
      return hw::Netlist("product-16").add(hw::Cell::kAnd2, 15);
    };
    // Accuracy transfer: same AND-tree semantics as the builtin
    // multiply, so the chain-rewrite calibration test gets a bound
    // tighter than the trivial envelope.
    def.error_transfer = error_transfers::nary_and();
    r->add(std::move(def));
    return r;
  }();
  return *reg;
}

/// One input fanned out to all 16 copy slots of product-16: the planner's
/// pairwise insertion charges k(k-1)/2 = 120 decorrelators, the
/// optimizer's chain pass k-1 = 15 links.
inline Program fanout16_program(double x_value = 0.9) {
  GraphBuilder b(wide_registry());
  const Value x = b.input("x", x_value, 0);
  const std::vector<Value> copies(16, x);
  b.output(b.op("product-16", copies), "x^16");
  return b.build();
}

/// A mixed program that gives every default optimizer pass a rewrite: a
/// foldable constant subtree, a CSE duplicate, a dead op, and two sibling
/// ops whose synchronizers share one circuit.
inline Program siblings_program() {
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.9, 1);
  const Value z = b.input("z", 0.4, 2);
  const Value c1 = b.constant(0.5);
  const Value c2 = b.constant(0.6);
  const Value folded = b.op("multiply", {c1, c2});     // constant-fold
  const Value xy = b.op("multiply", {x, y});
  const Value xy_dup = b.op("multiply", {x, y});       // CSE duplicate
  const Value diff = b.op("subtract", {xy, z});        // sync (shared...)
  const Value floor = b.op("min", {xy_dup, z});        // ...with this one
  (void)b.op("max", {x, z});                           // dead
  b.output(b.op("scaled-add", {diff, b.op("multiply", {floor, folded})}),
           "out");
  return b.build();
}

/// The §IV image-window program on a fixed 4x4 window: a realistic shape
/// with little for the optimizer to rewrite.
inline Program window16_program() {
  std::array<double, 16> pixels{};
  for (std::size_t i = 0; i < 16; ++i) pixels[i] = 0.1 + 0.05 * (i % 10);
  return img::window_program(pixels);
}

/// Random registry program: a handful of grouped inputs and constants, a
/// random mix of registered operators (unary, binary, and n-ary) over
/// random operands, two outputs.
inline Program random_program(std::mt19937_64& gen, std::size_t op_count = 8) {
  static const char* kOps[] = {
      "multiply",        "scaled-add", "saturating-add",   "subtract",
      "max",             "min",        "divide",           "toggle-add",
      "multiply-bipolar", "negate-bipolar", "scaled-sub-bipolar",
      "stanh-8",         "sexp-8-1",   "bernstein-x2-3"};
  std::uniform_real_distribution<double> unit(0.05, 0.95);
  GraphBuilder b;
  std::vector<Value> values;
  const std::size_t inputs = 3 + gen() % 4;
  for (std::size_t i = 0; i < inputs; ++i) {
    values.push_back(b.input("in" + std::to_string(i), unit(gen),
                             static_cast<unsigned>(gen() % 3)));
  }
  values.push_back(b.constant(unit(gen)));

  const OperatorRegistry& reg = registry();
  for (std::size_t i = 0; i < op_count; ++i) {
    const char* name = kOps[gen() % (sizeof(kOps) / sizeof(kOps[0]))];
    const OperatorDef& def = *reg.find(name);
    std::vector<Value> operands;
    for (unsigned k = 0; k < def.arity; ++k) {
      operands.push_back(values[gen() % values.size()]);
    }
    values.push_back(b.op(name, operands));
  }
  b.output(values.back(), "out");
  b.output(values[values.size() / 2], "mid");
  return b.build();
}

}  // namespace sc::graph::fixtures
