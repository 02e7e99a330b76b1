/// Soundness campaign for the static accuracy model (error_model.hpp):
/// on random registry programs, the measured per-output |error| of a
/// real execution must never exceed the bound the abstract interpreter
/// predicted — zero unsoundness across >= 200 seed-logged cases with
/// backends rotating reference / kernel / engine and stream lengths
/// rotating 2^10 .. 2^14.  Tightness (measured / bound) is logged so
/// calibration drift is visible without being load-bearing.
///
/// The directed half pins the chain-rewrite calibration: the fanout-16
/// product's predicted bound must cover the measured pairwise -> chain
/// accuracy regression (~0.020 -> ~0.052 at N = 4096) while staying
/// selective enough that the optimizer's Pareto gate rejects the chain
/// under a 0.03 error budget and accepts it under 0.10.
///
/// Reproducing a failure: every case logs its 64-bit case seed via
/// SCOPED_TRACE — rerun with SC_ACCURACY_SEED=<base seed> (and
/// SC_ACCURACY_CASES past the default budget) to replay the campaign.
///
/// Scope caveat: the bounds are seed-agnostic.  They cover SNG
/// quantization, fix residuals, and LFSR phase coupling at campaign
/// scale, but not unlucky exec-seed *generator collisions* (a private
/// MUX select landing on a data stream's effective generator realizes
/// the full Frechet-width deviation).  Those are runtime-seed events a
/// static model cannot price without trivializing every bound — they
/// are flagged by sc_lint's seed-provenance diagnostics instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>

#include "analysis/error_model.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph_fixtures.hpp"
#include "opt/optimize.hpp"

namespace sc::analysis {
namespace {

using graph::BackendKind;
using graph::ExecConfig;
using graph::ExecutionResult;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 0);
}

TEST(AccuracyProperty, MeasuredErrorWithinPredictedBound) {
  const std::uint64_t base_seed = env_u64("SC_ACCURACY_SEED", 0xACC0ull);
  const std::uint64_t cases = env_u64("SC_ACCURACY_CASES", 210);
  constexpr BackendKind kBackends[] = {
      BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine};
  constexpr std::size_t kLengths[] = {1u << 10, 1u << 12, 1u << 14};
  constexpr Strategy kStrategies[] = {Strategy::kManipulation,
                                      Strategy::kRegeneration,
                                      Strategy::kNone};

  std::size_t checked = 0;
  double tightness_sum = 0.0;
  double tightness_max = 0.0;
  std::size_t trivial_bounds = 0;

  for (std::uint64_t index = 0; index < cases; ++index) {
    const std::uint64_t case_seed = base_seed + index;
    SCOPED_TRACE("case " + std::to_string(index) + " seed " +
                 std::to_string(case_seed) + " (SC_ACCURACY_SEED=" +
                 std::to_string(base_seed) + ")");
    std::mt19937_64 gen(case_seed);
    const Program program = graph::fixtures::random_program(gen);

    ExecConfig exec;
    exec.stream_length = kLengths[index % 3];
    exec.seed = static_cast<std::uint32_t>(gen());
    const Strategy strategy = kStrategies[(index / 3) % 3];
    graph::PlannerConfig planner;
    planner.width = exec.width;
    planner.sync_depth = exec.sync_depth;
    planner.shuffle_depth = exec.shuffle_depth;
    const ProgramPlan plan = plan_program(program, strategy, planner);

    const AccuracyReport predicted =
        plan_accuracy(program, plan, AnalyzerConfig::from(exec));
    ASSERT_EQ(predicted.outputs.size(), program.outputs().size());

    const auto backend = graph::make_backend(kBackends[index % 3]);
    const ExecutionResult result = backend->run(program, plan, exec);
    ASSERT_EQ(result.output_nodes.size(), predicted.outputs.size());

    for (std::size_t k = 0; k < predicted.outputs.size(); ++k) {
      const ErrorBound& bound = predicted.outputs[k];
      ASSERT_EQ(result.output_nodes[k], bound.node);
      const double measured = result.abs_errors[k];
      // The soundness invariant — zero unsoundness tolerated.
      EXPECT_LE(measured, bound.bound + 1e-12)
          << "output '" << bound.name << "': measured |error| " << measured
          << " above predicted bound " << bound.bound << " (bias "
          << bound.bias << ", sigma " << bound.sigma << ")";
      ++checked;
      const double trivial = std::max(bound.exact, 1.0 - bound.exact);
      if (bound.bound >= trivial - 1e-12) ++trivial_bounds;
      if (bound.bound > 0.0) {
        const double ratio = measured / bound.bound;
        tightness_sum += ratio;
        tightness_max = std::max(tightness_max, ratio);
      }
    }
  }

  ASSERT_GE(checked, 2 * 200u);  // two outputs per case, >= 200 cases
  std::printf(
      "[ tightness ] %zu output bounds: mean measured/bound %.3f, max "
      "%.3f, %.1f%% at the trivial envelope\n",
      checked, tightness_sum / static_cast<double>(checked), tightness_max,
      100.0 * static_cast<double>(trivial_bounds) /
          static_cast<double>(checked));
}

TEST(AccuracyCalibration, ChainRewriteBoundTracksMeasuredRegression) {
  const Program program = graph::fixtures::fanout16_program(0.9);
  graph::PlannerConfig planner;
  const ProgramPlan pairwise =
      plan_program(program, Strategy::kManipulation, planner);

  AnalyzerConfig config;
  config.stream_length = 4096;
  const double predicted_pairwise =
      plan_error(program, pairwise, config);

  opt::OptConfig opt_config;
  const opt::OptResult chained = opt::optimize(program, pairwise, opt_config);
  const double predicted_chain =
      plan_error(chained.program, chained.plan, config);

  // The chain rewrite costs accuracy; the model must see that ordering.
  EXPECT_LT(predicted_pairwise, predicted_chain);

  // Both bounds must cover the measured errors on every backend, and the
  // chain bound must sit inside the (0.03, 0.10] window that makes the
  // Pareto gate selective (reject at 0.03, accept at 0.10) while
  // covering the measured ~0.052 regression.
  ExecConfig exec;
  exec.stream_length = 4096;
  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kKernel, BackendKind::kEngine}) {
    const auto backend = graph::make_backend(kind);
    const double measured_pairwise =
        backend->run(program, pairwise, exec).abs_errors[0];
    const double measured_chain =
        backend->run(chained.program, chained.plan, exec).abs_errors[0];
    EXPECT_LE(measured_pairwise, predicted_pairwise);
    EXPECT_LE(measured_chain, predicted_chain);
    EXPECT_GT(measured_chain, measured_pairwise);
  }
  EXPECT_GT(predicted_chain, 0.03);
  EXPECT_LE(predicted_chain, 0.10);

  // Pareto gate: a 0.03 error budget must roll the chain rewrite back,
  // a 0.10 budget must keep it.
  const auto chain_accepted = [](const opt::OptResult& result) {
    for (const opt::PassReport& report : result.reports) {
      if (report.pass == "chain-decorrelators") return report.accepted;
    }
    return false;
  };
  opt::OptConfig tight = opt_config;
  tight.error_budget = 0.03;
  const opt::OptResult rejected = opt::optimize(program, pairwise, tight);
  EXPECT_FALSE(chain_accepted(rejected));
  const opt::OptAssessment rejected_report =
      opt::assess(program, pairwise, rejected, tight);
  EXPECT_EQ(rejected_report.error_before, rejected_report.error_after);

  opt::OptConfig loose = opt_config;
  loose.error_budget = 0.10;
  const opt::OptResult accepted = opt::optimize(program, pairwise, loose);
  EXPECT_TRUE(chain_accepted(accepted));
  const opt::OptAssessment accepted_report =
      opt::assess(program, pairwise, accepted, loose);
  EXPECT_GT(accepted_report.error_after, accepted_report.error_before);

  // The summary reports the error axis beside area and fragility.
  EXPECT_NE(accepted_report.summary().find("predicted |error|"),
            std::string::npos);
}

TEST(AccuracyCalibration, MinStreamLengthAnswersTheRmseQuestion) {
  const Program program = graph::fixtures::fanout16_program(0.9);
  graph::PlannerConfig planner;
  const ProgramPlan plan =
      plan_program(program, Strategy::kManipulation, planner);
  AnalyzerConfig config;

  // The stochastic half shrinks with N, so some length reaches 0.06...
  const std::size_t needed = min_stream_length(program, plan, 0.06, config);
  ASSERT_GT(needed, 0u);
  config.stream_length = needed;
  EXPECT_LE(plan_error(program, plan, config), 0.06);

  // ...while a target below the deterministic bias is unreachable at any
  // length.
  EXPECT_EQ(min_stream_length(program, plan, 1e-6, config), 0u);
}

}  // namespace
}  // namespace sc::analysis
