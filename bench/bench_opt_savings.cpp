/// \file bench_opt_savings.cpp
/// Optimizer savings baseline: corrections saved, modeled-area delta, and
/// optimize throughput on reference workloads.
///
/// Workloads:
///   fanout-16  — one input fanned to all 16 copies of a product operator:
///                the planner's pairwise insertion charges 120
///                decorrelators, the optimizer's chain pass (paper §III-C)
///                rewrites them to 15 single-buffer links.
///   siblings   — a mixed program exercising every pass: a foldable
///                constant subtree, a CSE duplicate, a dead op, and two
///                sibling ops whose synchronizers share one circuit.
///   window     — the §IV image-window program (realistic shape; measures
///                optimize overhead when there is little to rewrite).
///
/// For every workload the optimized program is executed on all three
/// backends and verified bit-identical across them before any number is
/// written; the bench exits nonzero on divergence or if the optimizer
/// fails to lower the modeled area of the fan-out workload.
///
/// Harness bench (bench_harness.hpp).  Cases per workload:
/// opt/<name>/optimize (throughput, nodes/s; times opt::optimize, the
/// rewrite alone — opt::assess builds the area and error report outside
/// the timed call), opt/<name>/corrections_
/// {before,after} (exact — the chain-rewrite contract), opt/<name>/
/// area_{before,after}_um2 and error bounds and measured errors (value —
/// deterministic, tight epsilon), opt/<name>/identical (exact); plus the
/// Pareto sweep opt/pareto/budget_<b>/* value + exact cases.
///
/// Usage: bench_opt_savings [--json PATH] [--reps N] [--warmup N]
///        [--quick] [--bits LOG2]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "opt/optimize.hpp"

// The workloads are shared with tests/opt_test.cpp and tests/golden_test.cpp
// so the regression tests and this bench's CI self-check can never drift
// apart on the workload they validate.
#include "../tests/graph_fixtures.hpp"

namespace {

using namespace sc::graph;
using fixtures::fanout16_program;
using fixtures::siblings_program;
using fixtures::window16_program;

struct WorkloadResult {
  std::size_t corrections_before = 0;
  std::size_t corrections_after = 0;
  double area_before_um2 = 0.0;
  double area_after_um2 = 0.0;
  double error_before = 0.0;
  double error_after = 0.0;
  double err_unoptimized = 0.0;
  double err_optimized = 0.0;
  bool backends_identical = true;
};

WorkloadResult run_workload(sc::bench::Harness& harness,
                            const std::string& name, const Program& program,
                            std::size_t stream_length,
                            const std::string& case_config) {
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);

  sc::opt::OptConfig opt_config;
  opt_config.error_stream_length = stream_length;
  sc::opt::OptResult optimized;
  harness.time_case("opt/" + name + "/optimize", "nodes_per_s",
                    static_cast<double>(program.node_count()), 1.0,
                    [&] { optimized = sc::opt::optimize(program, plan,
                                                        opt_config); },
                    case_config);

  const sc::opt::OptAssessment report =
      sc::opt::assess(program, plan, optimized, opt_config);
  WorkloadResult result;
  result.corrections_before = plan.inserted_units;
  result.corrections_after = optimized.plan.inserted_units;
  result.area_before_um2 = report.area_before_um2;
  result.area_after_um2 = report.area_after_um2;
  result.error_before = report.error_before;
  result.error_after = report.error_after;

  ExecConfig config;
  config.stream_length = stream_length;
  result.err_unoptimized =
      make_backend(BackendKind::kKernel)->run(program, plan, config)
          .mean_abs_error;
  ExecutionResult reference;
  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const ExecutionResult r = make_backend(kind)->run(
        optimized.program, optimized.plan, config);
    if (reference.streams.empty()) {
      reference = r;
      result.err_optimized = r.mean_abs_error;
      continue;
    }
    for (std::size_t s = 0; s < reference.streams.size(); ++s) {
      if (r.streams[s] != reference.streams[s]) {
        result.backends_identical = false;
        break;
      }
    }
  }

  // Corrections counts are plan contracts (config-independent); areas and
  // errors are deterministic at a fixed stream length.
  harness.exact_case("opt/" + name + "/corrections_before",
                     result.corrections_before);
  harness.exact_case("opt/" + name + "/corrections_after",
                     result.corrections_after);
  harness.exact_case("opt/" + name + "/identical",
                     result.backends_identical ? 1 : 0);
  harness.value_case("opt/" + name + "/area_before_um2", "um2",
                     result.area_before_um2, false, case_config);
  harness.value_case("opt/" + name + "/area_after_um2", "um2",
                     result.area_after_um2, false, case_config);
  harness.value_case("opt/" + name + "/error_bound_after", "abs_error",
                     result.error_after, false, case_config);
  harness.value_case("opt/" + name + "/err_optimized", "abs_error",
                     result.err_optimized, false, case_config);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::HarnessOptions options;
  std::vector<std::string> rest;
  if (!sc::bench::parse_harness_options(argc, argv, &options, &rest)) return 2;
  // The 0.03/0.10 Pareto contract is calibrated at N=4096; --quick keeps
  // it (the workloads are small, the reps cut is the savings).
  unsigned log2_bits = 12;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--bits" && i + 1 < rest.size()) {
      log2_bits = static_cast<unsigned>(std::atoi(rest[++i].c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--reps N] [--warmup N] [--quick] "
                   "[--bits LOG2]\n",
                   argv[0]);
      return 2;
    }
  }
  const std::size_t stream_length = std::size_t{1} << log2_bits;
  const std::string case_config = "bits=" + std::to_string(log2_bits);

  sc::bench::Harness harness("opt_savings", options);
  harness.set_meta("stream_bits", static_cast<std::uint64_t>(stream_length));

  std::printf("optimizer savings bench: 2^%u bits, median of %u reps\n\n",
              log2_bits, harness.options().reps);

  const std::vector<std::pair<std::string, Program>> workloads = {
      {"fanout-16", fanout16_program()},
      {"siblings", siblings_program()},
      {"window", window16_program()},
  };
  std::vector<WorkloadResult> results;
  bool ok = true;
  for (const auto& [name, program] : workloads) {
    const WorkloadResult r =
        run_workload(harness, name, program, stream_length, case_config);
    std::printf(
        "  %-10s %3zu nodes  corrections %3zu -> %3zu  area %9.1f -> %9.1f "
        "um2 (%+6.1f%%)  bound %.4f -> %.4f  |err| %.4f -> %.4f  "
        "identical=%s\n",
        name.c_str(), program.node_count(), r.corrections_before,
        r.corrections_after, r.area_before_um2, r.area_after_um2,
        r.area_before_um2 == 0.0
            ? 0.0
            : 100.0 * (r.area_after_um2 - r.area_before_um2) /
                  r.area_before_um2,
        r.error_before, r.error_after, r.err_unoptimized, r.err_optimized,
        r.backends_identical ? "yes" : "NO");
    ok &= r.backends_identical;
    results.push_back(r);
  }
  // The acceptance bar: the chain pass must lower the fan-out design's
  // modeled area (15 chain links instead of 120 pairwise decorrelators).
  ok &= results[0].area_after_um2 < results[0].area_before_um2;
  ok &= results[0].corrections_after == 15 &&
        results[0].corrections_before == 120;

  // Pareto sweep over error budgets on the fan-out workload: area vs
  // predicted vs measured accuracy of the multi-objective gate.  The
  // tight budget must roll the chain rewrite back, the loose one keep it,
  // and the unbudgeted run reproduces the legacy area-only gate.
  const Program fanout = fanout16_program();
  const ProgramPlan fanout_plan = plan_program(fanout, Strategy::kManipulation);
  const double budgets[] = {0.03, 0.10, 0.0};
  std::vector<std::size_t> pareto_corrections;
  std::vector<double> pareto_measured;
  std::vector<double> pareto_area;
  std::printf("\n  pareto (fanout-16):\n");
  for (const double budget : budgets) {
    sc::opt::OptConfig config;
    config.error_stream_length = stream_length;
    if (budget > 0.0) config.error_budget = budget;
    const sc::opt::OptResult optimized =
        sc::opt::optimize(fanout, fanout_plan, config);
    const sc::opt::OptAssessment report =
        sc::opt::assess(fanout, fanout_plan, optimized, config);
    ExecConfig exec;
    exec.stream_length = stream_length;
    const double measured =
        make_backend(BackendKind::kKernel)
            ->run(optimized.program, optimized.plan, exec)
            .mean_abs_error;
    const std::string tag =
        budget > 0.0 ? std::to_string(budget).substr(0, 4) : "none";
    harness.exact_case("opt/pareto/budget_" + tag + "/corrections",
                       optimized.plan.inserted_units, case_config);
    harness.value_case("opt/pareto/budget_" + tag + "/measured_error",
                       "abs_error", measured, false, case_config);
    std::printf(
        "    error budget %-5s  corrections %3zu  area %9.1f um2  "
        "predicted |error| %.4f  measured %.4f\n",
        tag.c_str(), optimized.plan.inserted_units, report.area_after_um2,
        report.error_after, measured);
    // Soundness at every point: the static bound covers the measurement.
    ok &= measured <= report.error_after;
    pareto_corrections.push_back(optimized.plan.inserted_units);
    pareto_measured.push_back(measured);
    pareto_area.push_back(report.area_after_um2);
  }
  if (stream_length == 4096) {
    // At the calibrated operating point the 0.03 budget must reject the
    // chain rewrite (pairwise plan survives: 120 corrections, larger
    // area, lower error) and the 0.10 budget must accept it.
    ok &= pareto_corrections[0] == 120 && pareto_corrections[1] == 15;
    ok &= pareto_area[0] > pareto_area[1];
    ok &= pareto_measured[0] < pareto_measured[1];
    // Unbudgeted behaves like the legacy area-only gate.
    ok &= pareto_corrections[2] == pareto_corrections[1];
  }

  if (!harness.write_json()) return 1;
  std::printf("\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
