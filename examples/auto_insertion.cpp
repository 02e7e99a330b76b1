/// Example: registry programs with automatic insertion of the paper's
/// manipulating circuits, executed on pluggable backends.
///
/// Builds  e = |a*b - c|  with the fluent GraphBuilder (a multiply feeding
/// a subtractor, plus a Bernstein polynomial of the result fed three
/// copies of one stream), lets the planner discover every correlation
/// mismatch — the multiply's shared-RNG operands, the subtractor's
/// computation-induced ancestry, the Bernstein unit's copy pairs — then
/// executes the program bit-true under each strategy on each backend and
/// prices the inserted hardware.  The planner knows nothing about any of
/// these operators beyond their registry definitions.

#include <cstdio>

#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "hw/cost.hpp"
#include "opt/optimize.hpp"

using namespace sc::graph;

int main() {
  // --- build with a deliberately lazy RNG budget ---------------------------
  GraphBuilder b;
  const Value a = b.input("a", 0.8, /*rng_group=*/0);
  const Value v = b.input("b", 0.6, 0);  // shares a's RNG (cheap!)
  const Value c = b.input("c", 0.3, 1);
  const Value e = b.op("subtract", {b.op("multiply", {a, v}), c});
  const Value poly = b.op("bernstein-x2-3", {e, e, e});  // needs 3 indep copies
  b.output(e, "edge").output(poly, "edge^2");
  const Program program = b.build();

  std::printf("program: edge = |a*b - c|, edge^2 via Bernstein; a=0.8 b=0.6 "
              "c=0.3\n");
  std::printf("exact: edge = %.4f, edge^2 = %.4f\n\n",
              program.exact_value(program.find("edge")),
              program.exact_value(program.find("edge^2")));

  const auto backend = make_backend(BackendKind::kKernel);
  for (Strategy strategy :
       {Strategy::kNone, Strategy::kRegeneration, Strategy::kManipulation}) {
    const ProgramPlan plan = plan_program(program, strategy);
    const ExecutionResult result = backend->run(program, plan, {});
    const sc::hw::CostReport cost = sc::hw::evaluate(plan.overhead);

    std::printf("strategy %-16s -> edge = %.4f  edge^2 = %.4f (mean |err| = "
                "%.4f), inserted %zu units, %7.1f um2, %5.2f uW\n",
                to_string(strategy).c_str(), result.values[0],
                result.values[1], result.mean_abs_error, plan.inserted_units,
                cost.area_um2, cost.power_uw);
    for (const PairFix& fix : plan.fixes) {
      if (fix.fix == FixKind::kNone) continue;
      std::printf("    node %u (%s) operands (%u, %u): %s, requires %s -> "
                  "insert %s\n",
                  fix.op_node, program.node(fix.op_node).name.c_str(),
                  fix.operand_a, fix.operand_b,
                  to_string(fix.relation).c_str(),
                  to_string(fix.requirement).c_str(),
                  to_string(fix.fix).c_str());
    }
  }

  // --- the same program, three interchangeable backends --------------------
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  std::printf("\nbackends (same plan, bit-identical by construction):\n");
  for (BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const auto be = make_backend(kind);
    const ExecutionResult r = be->run(program, plan, {});
    std::printf("  %-10s edge = %.4f, edge^2 = %.4f\n", be->name().c_str(),
                r.values[0], r.values[1]);
  }

  // --- the optimizer front -------------------------------------------------
  // The Bernstein unit's three copies of `e` are a same-source group: the
  // planner's pairwise insertion charges 3 decorrelators, the optimizer's
  // chain pass (paper §III-C) needs only 2 single-buffer links.  Passing
  // ExecConfig::optimize = true runs the same rewrite inside any backend;
  // opt::assess prices it (area, fragility, predicted error) for printing.
  const sc::opt::OptResult optimized = sc::opt::optimize(program, plan);
  const sc::opt::OptAssessment assessed =
      sc::opt::assess(program, plan, optimized);
  std::printf("\noptimizer (opt::optimize, or ExecConfig::optimize = true):\n"
              "%s\n%s\n",
              optimized.summary().c_str(), assessed.summary().c_str());
  ExecConfig optimizing;
  optimizing.optimize = true;
  const ExecutionResult opt_run = backend->run(program, plan, optimizing);
  std::printf("  optimized run: edge = %.4f, edge^2 = %.4f (mean |err| = "
              "%.4f), %zu corrections instead of %zu\n",
              opt_run.values[0], opt_run.values[1], opt_run.mean_abs_error,
              optimized.plan.inserted_units, plan.inserted_units);

  std::printf(
      "\nwithout fixes the same-RNG multiply computes min(a,b), the\n"
      "subtractor sees the wrong correlation, and the Bernstein popcount\n"
      "collapses; the manipulation plan fixes all of it in-stream at a\n"
      "fraction of regeneration's power, and the optimizer prunes the\n"
      "insertions themselves.\n");
  return 0;
}
