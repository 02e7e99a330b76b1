#include "analysis/error_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

#include "bitstream/encoding.hpp"
#include "rng/lfsr.hpp"

namespace sc::analysis {

using graph::ErrorAbs;
using graph::ErrorTransferInput;
using graph::FixKind;
using graph::NodeId;
using graph::OperatorDef;
using graph::PairFix;
using graph::ProgramNode;

namespace {

// Residual-correlation table: how far a pair's SCC may sit from the
// regime its consumer assumes, as a fraction of the Frechet width, by
// the proof or fix that delivers the regime.  Calibrated against the
// measured pairwise-vs-chain fanout-16 gap (BENCH_opt: 0.020 -> 0.052);
// soundness never hinges on them (trivial cap), selectivity does.

/// Pairwise decorrelator (two fresh shuffle buffers of depth D): both
/// sides re-randomized, residual alignment decays with buffer depth.
constexpr double kDecorrelatorResidualPerDepth = 0.125;
/// Chain link (one shared shuffle of depth D feeding the next copy):
/// single-shuffle decorrelation is measurably weaker — the whole point
/// of the chain rewrite's accuracy cost.
constexpr double kChainResidualPerDepth = 0.375;
/// Synchronizer / desynchronizer window of depth d: the counter only
/// steers a 1/(2d+1) share of cycles per window, so a pair that starts
/// at SCC +1 (e.g. an operator fed the same stream twice) keeps roughly
/// half the Frechet width at the default depth 2 — measured residuals
/// around 0.34 of the width drive the 2.5 numerator.
constexpr double kSyncResidualPerWindow = 2.5;
/// Regenerated pair: fresh SNG encodings, but both draw from the same
/// width-w LFSR family, and two period-P traces at a fixed relative
/// phase visit only P of the P^2 joint states — phase coupling leaves
/// up to ~0.3 of the Frechet width on unlucky seeds.
constexpr double kRegenerateResidual = 0.35;
/// Proven independent by disjoint effective-generator sets: distinct
/// maximal-length LFSR traces still share spectral structure — the same
/// period-coupling effect as regeneration (measured up to ~0.14 of the
/// Frechet width on unlucky seed/phase pairs).
constexpr double kIndependentResidual = 0.2;
/// Proven SCC +1/-1 by threshold-generator propagation: exact up to
/// comparator quantization, a few levels of 2^w.
constexpr double kTgenResidualLevels = 8.0;

/// precision-loss threshold: a deterministic bias this large dominates
/// any plausible stream length's stochastic noise.
constexpr double kPrecisionLossBias = 0.1;
/// correlation-bias threshold per op node.
constexpr double kCorrelationBiasFloor = 0.01;

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

double trivial(double exact) { return std::max(exact, 1.0 - exact); }

/// LFSR-SNG envelope of a leaf (input/constant) stream encoding `value`:
/// exact asymptotic level on the 2^w - 1 trace, partial-period bias,
/// hypergeometric variance when N is shorter than one period.
ErrorAbs leaf_abs(double value, std::size_t stream_length, unsigned width) {
  const std::uint64_t natural = std::uint64_t{1} << width;
  const double period = static_cast<double>(natural - 1);
  const std::uint64_t level = sc::unipolar_level64(value, natural);
  // The trace visits 1 .. 2^w - 1 once per period; [trace < level] is
  // high on exactly min(level, 2^w) - 1 of them.
  const double ones =
      level == 0 ? 0.0
                 : static_cast<double>(std::min(level, natural) - 1);
  const double asymptotic = ones / period;
  const double n = static_cast<double>(std::max<std::size_t>(
      stream_length, 1));
  ErrorAbs out;
  out.bias = std::abs(value - asymptotic);
  out.var = 0.0;
  out.tau = 2.0;
  if (n >= period) {
    // Whole periods hit `asymptotic` exactly; the trailing partial
    // period contributes a deterministic phase-dependent remainder.
    out.bias += std::fmod(n, period) / n * trivial(asymptotic);
  } else {
    // Sampling N of P trace positions without replacement.
    out.var = asymptotic * (1.0 - asymptotic) / n * (1.0 - n / period);
  }
  out.bias = std::min(out.bias, trivial(value));
  out.lo = clamp01(value - out.bias);
  out.hi = clamp01(value + out.bias);
  return out;
}

/// Trivial-but-sound envelope for operators without a transfer.
ErrorAbs trivial_abs(double exact) {
  ErrorAbs out;
  out.lo = 0.0;
  out.hi = 1.0;
  out.bias = trivial(exact);
  out.var = 0.0;
  out.tau = 8.0;
  return out;
}

/// Buffer-fill transient of one fix in cycles (all of it lands in the
/// first cycles of the stream, so the program pays the deepest fix once,
/// not one share per fix).
double fix_warmup_cycles(const PairFix& fix, const AnalyzerConfig& config) {
  switch (fix.fix) {
    case FixKind::kDecorrelator:
    case FixKind::kDecorrelatorChain:
      return static_cast<double>(config.shuffle_depth);
    case FixKind::kSynchronizer:
    case FixKind::kDesynchronizer:
      return 2.0 * config.sync_depth + 1.0;
    case FixKind::kRegenerateShared:
    case FixKind::kRegenerateDistinct:
    case FixKind::kRegenerateComplementary:
    case FixKind::kNone:
      return 0.0;
  }
  return 0.0;
}

class Interpreter {
 public:
  Interpreter(const AnalysisReport& facts, const graph::Program& program,
              const graph::ProgramPlan& plan, const AnalyzerConfig& config)
      : facts_(facts), program_(program), plan_(plan), config_(config) {
    // Throws std::invalid_argument outside 3..32, before leaf_abs() and
    // tgen_residual() shift by the width.
    (void)rng::Lfsr::maximal_taps(config.width);
    for (std::size_t i = 0; i < plan_.fixes.size(); ++i) {
      const PairFix& fix = plan_.fixes[i];
      pair_fix_[{fix.op_node, fix.operand_a, fix.operand_b}] = fix.fix;
    }
    for (const PairPrediction& pair : facts_.pairs) {
      predictions_[{pair.op_node, pair.operand_a, pair.operand_b}] = &pair;
    }
  }

  AccuracyReport run() {
    AccuracyReport report;
    report.stream_length = config_.stream_length;
    const std::vector<double> exact = program_.exact_values();
    report.nodes.resize(program_.node_count());

    for (NodeId id = 0; id < program_.node_count(); ++id) {
      const ProgramNode& node = program_.node(id);
      if (node.kind != ProgramNode::Kind::kOp) {
        report.nodes[id] =
            leaf_abs(node.value, config_.stream_length, config_.width);
        continue;
      }
      report.nodes[id] = op_abs(id, node, exact, report);
    }

    // Every fix's buffer-fill junk occupies the first max-depth cycles
    // of the stream, so outputs pay that window once.
    double warmup_cycles = 0.0;
    for (const PairFix& fix : plan_.fixes) {
      warmup_cycles =
          std::max(warmup_cycles, fix_warmup_cycles(fix, config_));
    }
    const double warmup = warmup_cycles / static_cast<double>(
        std::max<std::size_t>(config_.stream_length, 1));

    for (const NodeId out_node : program_.outputs()) {
      const ErrorAbs& abs = report.nodes[out_node];
      ErrorBound bound;
      bound.node = out_node;
      bound.name = program_.node(out_node).name;
      bound.exact = exact[out_node];
      bound.bias = std::min(abs.bias + warmup, trivial(bound.exact));
      bound.sigma = std::sqrt(std::max(abs.var, 0.0));
      bound.bound = std::min(trivial(bound.exact),
                             bound.bias + kNSigma * bound.sigma);
      bound.lo = clamp01(std::max(abs.lo, bound.exact - bound.bound));
      bound.hi = clamp01(std::min(abs.hi, bound.exact + bound.bound));
      if (bound.lo > bound.hi) {
        bound.lo = clamp01(bound.exact - bound.bound);
        bound.hi = clamp01(bound.exact + bound.bound);
      }
      report.worst_bound = std::max(report.worst_bound, bound.bound);
      report.outputs.push_back(std::move(bound));
    }
    return report;
  }

 private:
  ErrorAbs op_abs(NodeId id, const ProgramNode& node,
                  const std::vector<double>& exact,
                  const AccuracyReport& report) {
    const OperatorDef& def = program_.def_of(id);
    const double exact_out = exact[id];
    ErrorAbs out;
    if (def.error_transfer) {
      std::vector<ErrorAbs> operand_abs;
      std::vector<double> operand_exact;
      operand_abs.reserve(node.operands.size());
      operand_exact.reserve(node.operands.size());
      for (const NodeId operand : node.operands) {
        operand_abs.push_back(report.nodes[operand]);
        operand_exact.push_back(exact[operand]);
      }
      ErrorTransferInput in;
      in.operands = sc::span<const ErrorAbs>(operand_abs.data(),
                                             operand_abs.size());
      in.exact_operands = sc::span<const double>(operand_exact.data(),
                                                 operand_exact.size());
      in.exact = exact_out;
      in.residual = [this, id, &node](unsigned i, unsigned j) {
        return pair_residual(id, node, i, j);
      };
      in.stream_length = config_.stream_length;
      in.width = config_.width;
      out = def.error_transfer(in);
    } else {
      out = trivial_abs(exact_out);
    }
    // Normalize to a consistent sound state: measured and exact both
    // live in [0, 1], so bias never usefully exceeds the trivial
    // envelope, and the interval must contain exact +- bias.
    out.bias = std::min(out.bias, trivial(exact_out));
    out.corr = std::min(out.corr, out.bias);
    out.var = std::max(out.var, 0.0);
    double lo = std::max(out.lo, exact_out - out.bias);
    double hi = std::min(out.hi, exact_out + out.bias);
    if (lo > hi) {
      lo = exact_out - out.bias;
      hi = exact_out + out.bias;
    }
    out.lo = clamp01(lo);
    out.hi = clamp01(hi);
    return out;
  }

  /// Residual of operand pair (i, j) of `id` after planned fixes, from
  /// the correlation dataflow analysis (see the table above).
  [[nodiscard]] double pair_residual(NodeId id, const ProgramNode& node,
                                     unsigned i,
                       unsigned j) const {
    const auto it = predictions_.find({id, i, j});
    if (it == predictions_.end()) {
      // Agnostic pair (no prediction): fall back to the raw-stream
      // class.  Fixes of *other* pairs may still shuffle these slots,
      // so kUnknown here stays conservative rather than wrong.
      switch (facts_.node_class(node.operands[i], node.operands[j])) {
        case SccClass::kIndependent:
          return kIndependentResidual;
        case SccClass::kCorrelated:
        case SccClass::kAnticorrelated:
          return tgen_residual();
        case SccClass::kUnknown:
          return 1.0;
      }
      return 1.0;
    }
    const PairPrediction& pair = *it->second;
    if (!pair.satisfied) return 1.0;
    switch (pair.fix) {
      case FixKind::kDecorrelator:
        return kDecorrelatorResidualPerDepth /
               static_cast<double>(std::max<std::size_t>(
                   config_.shuffle_depth, 1));
      case FixKind::kDecorrelatorChain:
        return chain_residual();
      case FixKind::kSynchronizer:
      case FixKind::kDesynchronizer:
        return kSyncResidualPerWindow /
               (2.0 * std::max(config_.sync_depth, 1u) + 1.0);
      case FixKind::kRegenerateShared:
      case FixKind::kRegenerateDistinct:
      case FixKind::kRegenerateComplementary:
        return kRegenerateResidual;
      case FixKind::kNone:
        break;
    }
    // Satisfied without a fix of its own: either proven on the raw
    // streams, or covered by another pair's shuffle (the chain's
    // transitive-coverage rule) — the latter keeps the weaker
    // single-shuffle residual.
    if (pair.at_gate == SccClass::kIndependent) {
      return pair.operands == SccClass::kIndependent ? kIndependentResidual
                                                     : chain_residual();
    }
    return tgen_residual();
  }

  [[nodiscard]] double chain_residual() const {
    return kChainResidualPerDepth / static_cast<double>(
        std::max<std::size_t>(config_.shuffle_depth, 1));
  }

  [[nodiscard]] double tgen_residual() const {
    return kTgenResidualLevels /
           static_cast<double>(std::uint64_t{1} << config_.width);
  }

  const AnalysisReport& facts_;
  const graph::Program& program_;
  const graph::ProgramPlan& plan_;
  const AnalyzerConfig& config_;
  std::map<std::tuple<NodeId, unsigned, unsigned>, FixKind> pair_fix_;
  std::map<std::tuple<NodeId, unsigned, unsigned>, const PairPrediction*>
      predictions_;
};

/// min_stream_length over already-computed facts (the pair predictions
/// do not depend on N, so one dataflow analysis serves every probe).
std::size_t min_stream_length_with(const AnalysisReport& facts,
                                   const graph::Program& program,
                                   const graph::ProgramPlan& plan,
                                   double target_rmse,
                                   const AnalyzerConfig& config) {
  if (target_rmse <= 0.0) return 0;
  AnalyzerConfig probe = config;
  for (std::size_t n = 64; n <= (std::size_t{1} << 26); n *= 2) {
    probe.stream_length = n;
    const AccuracyReport report =
        Interpreter(facts, program, plan, probe).run();
    if (report.worst_bound <= target_rmse) return n;
  }
  return 0;
}

}  // namespace

std::string AccuracyReport::to_text() const {
  std::ostringstream out;
  for (const ErrorBound& bound : outputs) {
    out << "output '" << bound.name << "' (#" << bound.node
        << "): exact " << bound.exact << ", |error| <= " << bound.bound
        << " (bias " << bound.bias << " + " << kNSigma << " sigma "
        << bound.sigma << "), E[measured] in [" << bound.lo << ", "
        << bound.hi << "]\n";
  }
  out << "worst output bound " << worst_bound << " at N = " << stream_length
      << "\n";
  return out.str();
}

AccuracyReport plan_accuracy(const graph::Program& program,
                             const graph::ProgramPlan& plan,
                             const AnalyzerConfig& config) {
  const AnalysisReport facts = analyze_facts(program, plan, config);
  return Interpreter(facts, program, plan, config).run();
}

AccuracyReport plan_accuracy_with(const AnalysisReport& facts,
                                  const graph::Program& program,
                                  const graph::ProgramPlan& plan,
                                  const AnalyzerConfig& config) {
  return Interpreter(facts, program, plan, config).run();
}

double plan_error(const graph::Program& program,
                  const graph::ProgramPlan& plan,
                  const AnalyzerConfig& config) {
  return plan_accuracy(program, plan, config).worst_bound;
}

std::size_t min_stream_length(const graph::Program& program,
                              const graph::ProgramPlan& plan,
                              double target_rmse,
                              const AnalyzerConfig& config) {
  const AnalysisReport facts = analyze_facts(program, plan, config);
  return min_stream_length_with(facts, program, plan, target_rmse, config);
}

void append_accuracy_diagnostics(AnalysisReport& report,
                                 const graph::Program& program,
                                 const graph::ProgramPlan& plan,
                                 const AnalyzerConfig& config) {
  const AccuracyReport accuracy =
      plan_accuracy_with(report, program, plan, config);
  report.worst_error_bound = accuracy.worst_bound;

  const auto emit = [&](std::string id, NodeId node, std::string message) {
    Diagnostic d;
    d.id = std::move(id);
    d.severity = Severity::kWarning;
    d.node = node;
    if (node != graph::kInvalidNode) d.name = program.node(node).name;
    d.message = std::move(message);
    report.diagnostics.push_back(std::move(d));
  };

  // precision-loss: deterministically biased outputs (output order).
  for (const ErrorBound& bound : accuracy.outputs) {
    if (bound.bias <= kPrecisionLossBias) continue;
    std::ostringstream message;
    message << "output's deterministic bias bound " << bound.bias
            << " exceeds " << kPrecisionLossBias
            << " — the estimate is biased, not merely noisy, so longer "
               "streams cannot recover it (exact " << bound.exact
            << ", total bound " << bound.bound << ")";
    emit("precision-loss", bound.node, message.str());
  }

  // saturation-risk / correlation-bias: live ops, node order.
  for (const NodeId id : program.op_nodes()) {
    if (!report.facts[id].live) continue;
    const ErrorAbs& abs = accuracy.nodes[id];
    if (abs.saturated) {
      std::ostringstream message;
      message << "saturating operator clips: the exact operand sum rides "
                 "the [0, 1] boundary, so magnitude information is "
                 "destroyed regardless of stream quality (output interval ["
              << abs.lo << ", " << abs.hi << "])";
      emit("saturation-risk", id, message.str());
    }
    if (abs.corr >= kCorrelationBiasFloor) {
      std::ostringstream message;
      message << "residual operand correlation contributes up to "
              << abs.corr
              << " bias at this gate (Frechet-envelope share after "
                 "planned fixes); tighter fixes or deeper buffers shrink "
                 "it";
      emit("correlation-bias", id, message.str());
    }
  }

  // insufficient-stream-length: requested RMSE vs configured N.
  if (config.target_rmse > 0.0 &&
      accuracy.worst_bound > config.target_rmse) {
    const std::size_t needed = min_stream_length_with(
        report, program, plan, config.target_rmse, config);
    std::ostringstream message;
    if (needed == 0) {
      message << "requested RMSE " << config.target_rmse
              << " is unachievable at any stream length: the "
                 "deterministic bias alone exceeds it (predicted bound "
              << accuracy.worst_bound << " at N = " << config.stream_length
              << ")";
    } else {
      message << "configured stream length " << config.stream_length
              << " predicts |error| <= " << accuracy.worst_bound
              << ", above the requested RMSE " << config.target_rmse
              << "; minimum stream length " << needed;
    }
    emit("insufficient-stream-length", graph::kInvalidNode, message.str());
  }

  // chain-unrecoverable: chain links whose post-fault disturbance
  // persists to stream end across >= 2 downstream copies (fault::sweep's
  // recovery-depth ground truth).  One warning per op node.
  std::map<NodeId, double> chain_blast;
  for (const FixFragility& entry : report.fix_fragility) {
    if (entry.kind != FixKind::kDecorrelatorChain) continue;
    if (entry.blast < 2.0) continue;
    if (entry.persistence <
        static_cast<double>(config.stream_length)) {
      continue;
    }
    chain_blast[entry.op_node] =
        std::max(chain_blast[entry.op_node], entry.blast);
  }
  for (const auto& [node, blast] : chain_blast) {
    std::ostringstream message;
    message << "a fault in this decorrelator chain never re-converges "
               "within the stream (recovery depth >= N = "
            << config.stream_length << " across "
            << static_cast<std::size_t>(blast)
            << " downstream copies); consider ReCo1-style recorrelation "
               "after the fan-out — re-synchronizing the copies bounds "
               "the post-fault error horizon at the cost of one "
               "synchronizer per copy";
    emit("chain-unrecoverable", node, message.str());
  }
}

}  // namespace sc::analysis
