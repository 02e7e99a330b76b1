/// \file error_model.hpp
/// Static accuracy analysis: an abstract interpreter that propagates the
/// graph::ErrorAbs domain (value interval, deterministic bias bound,
/// stochastic variance bound at stream length N) through a planned
/// program, yielding a sound per-output error bound *before anything
/// runs*.
///
/// The paper quantifies what correlation does to SC arithmetic only by
/// simulation; this model makes the same question answerable statically.
/// Each input/constant gets the exact LFSR-SNG envelope (quantization to
/// the comparator grid, partial-period sampling bias when N is not a
/// multiple of the generator period, hypergeometric variance when N is
/// shorter than one period).  Each operator applies its registered
/// OperatorDef::error_transfer — AND-multiply widened by the Frechet
/// envelope of each operand pair's *residual* correlation after planned
/// fixes, MUX scaled-add select-stream noise, saturating-add clipping,
/// FSM Lipschitz + warm-up terms, and so on — and operators without a
/// transfer fall back to the trivial-but-sound envelope
/// max(exact, 1 - exact).  Residuals come from the correlation dataflow
/// analysis (analyzer.hpp): a pair the analyzer proved SCC +1 by
/// threshold-generator propagation keeps only quantization slack, a
/// decorrelator-chain link keeps the single-shuffle residual, an
/// unproven pair widens to the full Frechet width.
///
/// Soundness invariant (checked over random programs x all three
/// backends by analysis_accuracy_property_test): for every output,
///   |measured - exact| <= bound   with
///   bound = min(max(exact, 1 - exact), bias + kNSigma * sqrt(var)).
/// The trivial cap makes the bound *deterministically* sound — measured
/// and exact both live in [0, 1] — so the calibrated stochastic part
/// only ever tightens it.
///
/// Consumers:
///  * opt::optimize — the multi-objective Pareto gate compares
///    plan_error before/after each proposal against OptConfig::
///    error_budget (the chain rewrite trades accuracy for area; under a
///    tight budget it must be dropped),
///  * sc_lint — append_accuracy_diagnostics turns the interpretation
///    into typed diagnostics (precision-loss, saturation-risk,
///    correlation-bias, insufficient-stream-length, chain-unrecoverable),
///  * min_stream_length — smallest power-of-two N whose predicted bound
///    meets a requested RMSE (the insufficient-stream-length fix hint).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "graph/error_transfer.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace sc::analysis {

/// Sound accuracy claim for one program output at stream length N.
struct ErrorBound {
  graph::NodeId node = graph::kInvalidNode;
  std::string name;
  double exact = 0.0;  ///< exact (floating-point) output value
  double bias = 0.0;   ///< deterministic |E[measured] - exact| bound
  double sigma = 0.0;  ///< standard deviation bound of the N-bit mean
  double bound = 0.0;  ///< min(trivial, bias + kNSigma * sigma)
  double lo = 0.0;     ///< E[measured] interval, unipolar space
  double hi = 1.0;
};

/// Full result of one abstract interpretation.
struct AccuracyReport {
  /// Per-node abstract state, indexed by NodeId (dead nodes included).
  std::vector<graph::ErrorAbs> nodes;
  /// One bound per program output, in output order.
  std::vector<ErrorBound> outputs;
  /// Worst (largest) output bound — the optimizer's scalar error metric.
  double worst_bound = 0.0;
  std::size_t stream_length = 0;

  [[nodiscard]] std::string to_text() const;
};

/// Confidence multiplier of the stochastic half of a bound: the final
/// bound spends `bias + kNSigma * sqrt(var)` before the trivial cap.
inline constexpr double kNSigma = 2.5;

/// Runs the abstract interpreter over a planned program at
/// config.stream_length bits.  Internally runs the correlation dataflow
/// analysis to derive per-pair residuals; use plan_accuracy_with when an
/// AnalysisReport is already in hand.
AccuracyReport plan_accuracy(const graph::Program& program,
                             const graph::ProgramPlan& plan,
                             const AnalyzerConfig& config = {});

/// Same, reusing `facts` (an AnalysisReport whose pairs/facts were
/// computed for this exact program + plan + config).
AccuracyReport plan_accuracy_with(const AnalysisReport& facts,
                                  const graph::Program& program,
                                  const graph::ProgramPlan& plan,
                                  const AnalyzerConfig& config = {});

/// Just the worst output bound (the opt:: hook — the Pareto gate's
/// accuracy axis, beside plan_fragility).
double plan_error(const graph::Program& program,
                  const graph::ProgramPlan& plan,
                  const AnalyzerConfig& config = {});

/// Smallest power-of-two stream length whose predicted worst output
/// bound meets `target_rmse`, probing 64 .. 2^26.  Returns 0 when no
/// probed length gets there (deterministic bias alone exceeds the
/// target, so running longer cannot help).
std::size_t min_stream_length(const graph::Program& program,
                              const graph::ProgramPlan& plan,
                              double target_rmse,
                              const AnalyzerConfig& config = {});

/// Runs plan_accuracy_with over `report`'s own facts and appends the
/// accuracy diagnostic family (stable ids, deterministic order):
///   precision-loss              (warning) output deterministic bias
///                               beyond 0.1 — the estimate is biased, not
///                               merely noisy, so longer streams cannot
///                               recover it
///   saturation-risk             (warning) live saturating op whose
///                               operand envelope crosses the clip point
///   correlation-bias            (warning) live op absorbing >= 0.01
///                               bias from residual operand correlation
///   insufficient-stream-length  (warning) config.target_rmse > 0 and
///                               the configured N misses it; message
///                               carries min_stream_length's answer
///   chain-unrecoverable         (warning) decorrelator-chain link whose
///                               post-fault disturbance persists to
///                               stream end across >= 2 copies — flags
///                               ReCo1-style recorrelation as the hint
/// Also fills report.worst_error_bound (the to_json "error_bound"
/// field).  Called by analyze(); sc_lint gets it for free.
void append_accuracy_diagnostics(AnalysisReport& report,
                                 const graph::Program& program,
                                 const graph::ProgramPlan& plan,
                                 const AnalyzerConfig& config = {});

}  // namespace sc::analysis
