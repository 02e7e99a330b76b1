#include "opt/optimize.hpp"

#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/analyzer.hpp"
#include "analysis/error_model.hpp"
#include "obs/telemetry.hpp"

namespace sc::opt {

using graph::FixKind;
using graph::NodeId;
using graph::PairFix;
using graph::ProgramPlan;

namespace {

/// The passes in order: report name, OptConfig toggle, function.
struct PassEntry {
  const char* name;
  bool OptConfig::*enabled;
  PassFn* run;
};

constexpr PassEntry kPasses[] = {
    {"constant-fold", &OptConfig::constant_folding, &fold_constants},
    {"cse", &OptConfig::cse, &merge_common_subexpressions},
    {"dve", &OptConfig::dead_value_elimination, &drop_dead_values},
    {"chain-decorrelators", &OptConfig::chain_decorrelators,
     &chain_decorrelators},
    {"share-corrections", &OptConfig::correction_sharing, &share_corrections},
    {"drop-dead-fixes", &OptConfig::dead_fix_elimination, &drop_dead_fixes},
};

/// Area comparisons tolerate float noise from netlist summation order.
constexpr double kAreaEpsilon = 1e-6;
/// Same for the predicted-error and fragility axes of the Pareto gate.
constexpr double kMetricEpsilon = 1e-9;

/// Analyzer operating point of the gate's error/fragility evaluations.
analysis::AnalyzerConfig gate_analyzer_config(const OptConfig& config) {
  analysis::AnalyzerConfig out;
  out.stream_length = config.error_stream_length;
  out.width = config.width;
  out.sync_depth = config.planner.sync_depth;
  out.shuffle_depth = config.planner.shuffle_depth;
  out.telemetry = config.telemetry;
  return out;
}

/// One budgeted axis of the Pareto gate: a rewrite may sit above a
/// budget it was already above (legacy designs keep optimizing), but
/// must not *move away* from a budget it violates.
bool within_budget(double before, double after, double budget,
                   double epsilon) {
  return !(after > budget && after > before + epsilon);
}

}  // namespace

std::string to_string(const PassReport& report) {
  std::ostringstream out;
  out << report.pass << ": ";
  if (!report.changed) {
    out << "no rewrite";
    return out.str();
  }
  out << (report.accepted ? "accepted" : "REJECTED");
  if (report.nodes_removed != 0) out << ", -" << report.nodes_removed << " nodes";
  if (report.nodes_folded != 0) out << ", " << report.nodes_folded << " folded";
  if (report.corrections_saved != 0) {
    out << ", -" << report.corrections_saved << " corrections";
  }
  out << ", area " << (report.area_delta_um2 <= 0 ? "" : "+")
      << report.area_delta_um2 << " um2";
  if (report.error_delta != 0.0) {
    out << ", error " << (report.error_delta <= 0 ? "" : "+")
        << report.error_delta;
  }
  if (report.fragility_delta != 0.0) {
    out << ", fragility " << (report.fragility_delta <= 0 ? "" : "+")
        << report.fragility_delta;
  }
  if (!report.detail.empty()) out << " (" << report.detail << ")";
  return out.str();
}

double modeled_area(const graph::Program& program, const ProgramPlan& plan,
                    const OptConfig& config) {
  return hw::evaluate(program.base_netlist(config.width) + plan.overhead,
                      config.cost)
      .area_um2;
}

bool plan_covers(const ProgramPlan& plan) {
  // Slots of each op that some decorrelator fix re-shuffles (a chain link
  // only re-shuffles its second operand; the first passes through).
  std::map<NodeId, std::set<unsigned>> shuffled;
  for (const PairFix& fix : plan.fixes) {
    if (fix.fix == FixKind::kDecorrelator) {
      shuffled[fix.op_node].insert(fix.operand_a);
      shuffled[fix.op_node].insert(fix.operand_b);
    } else if (fix.fix == FixKind::kDecorrelatorChain) {
      shuffled[fix.op_node].insert(fix.operand_b);
    }
  }
  const std::set<NodeId> violated(plan.violations.begin(),
                                  plan.violations.end());
  for (const PairFix& fix : plan.fixes) {
    if (graph::requirement_satisfied(fix.requirement, fix.relation)) continue;
    if (fix.fix != FixKind::kNone) continue;
    if (violated.count(fix.op_node) != 0) continue;
    if (fix.requirement == graph::Requirement::kUncorrelated) {
      const auto it = shuffled.find(fix.op_node);
      if (it != shuffled.end() && (it->second.count(fix.operand_a) != 0 ||
                                   it->second.count(fix.operand_b) != 0)) {
        continue;  // chain-covered
      }
    }
    return false;
  }
  return true;
}

std::size_t OptResult::nodes_removed() const {
  std::size_t total = 0;
  for (const PassReport& report : reports) {
    if (report.accepted) total += report.nodes_removed;
  }
  return total;
}

std::size_t OptResult::corrections_saved() const {
  std::size_t total = 0;
  for (const PassReport& report : reports) {
    if (report.accepted) total += report.corrections_saved;
  }
  return total;
}

std::string OptResult::summary() const {
  std::string out;
  for (const PassReport& report : reports) {
    if (!out.empty()) out += '\n';
    out += "  " + to_string(report);
  }
  return out;
}

std::string OptAssessment::summary() const {
  std::ostringstream out;
  out << "  modeled area " << area_before_um2 << " -> " << area_after_um2
      << " um2 (" << (cost_delta.power_uw <= 0 ? "" : "+")
      << cost_delta.power_uw << " uW)\n";
  out << "  static fragility " << fragility_before << " -> "
      << fragility_after << "\n";
  out << "  predicted |error| <= " << error_before << " -> " << error_after;
  return out.str();
}

OptResult optimize(const graph::Program& program,
                   const graph::ProgramPlan& plan, const OptConfig& config) {
  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Tracer* const tracer = obs::tracer_of(telemetry);
  obs::Span span(tracer, "opt.optimize", "opt");
  OptResult result;
  result.program = program;
  result.plan = plan;
  result.node_map.resize(program.node_count());
  std::iota(result.node_map.begin(), result.node_map.end(), 0u);
  result.reports.reserve(std::size(kPasses));

  const bool budgeted = config.budgeted();
  const analysis::AnalyzerConfig gate_config = gate_analyzer_config(config);
  // Carried across passes so each proposal pays one area and one
  // error/fragility evaluation, not two: the accepted state's metrics
  // become the next pass's "before".  Only an accepted proposal moves the
  // design.
  double area_before = modeled_area(result.program, result.plan, config);
  double error_before = 0.0;
  double fragility_before = 0.0;
  if (budgeted) {
    error_before =
        analysis::plan_error(result.program, result.plan, gate_config);
    fragility_before =
        analysis::plan_fragility(result.program, result.plan, gate_config);
  }
  for (const PassEntry& pass : kPasses) {
    if (!(config.*pass.enabled)) continue;
    obs::Span pass_span(tracer, std::string("opt.") + pass.name, "opt");
    PassReport report;
    report.pass = pass.name;
    std::optional<Rewrite> rewrite =
        pass.run(result.program, result.plan, config, report);
    if (telemetry != nullptr) telemetry->metrics().counter("opt.passes").inc();
    if (!rewrite) {
      pass_span.arg_str("result", "no-rewrite");
      result.reports.push_back(std::move(report));
      continue;
    }
    report.changed = true;
    // A new program is replanned under the same strategy so fixes,
    // relations, and violations track the rewritten operand identities.
    ProgramRewrite* const rewritten = std::get_if<ProgramRewrite>(&*rewrite);
    const graph::Program& program_after =
        rewritten != nullptr ? rewritten->program : result.program;
    ProgramPlan plan_after =
        rewritten != nullptr
            ? graph::plan_program(program_after, result.plan.strategy,
                                  config.planner)
            : std::get<ProgramPlan>(std::move(*rewrite));
    graph::price_plan(plan_after, config.planner);

    const double area_after = modeled_area(program_after, plan_after, config);
    const bool lowers =
        area_after < area_before - kAreaEpsilon ||
        (area_after <= area_before + kAreaEpsilon &&
         (report.nodes_removed != 0 || report.corrections_saved != 0));
    const bool safe =
        plan_covers(plan_after) &&
        plan_after.violations.size() <= result.plan.violations.size();

    // Legacy gate: keep what lowers area and stays safe.  Pareto gate
    // (any finite budget): keep what is safe, improves at least one
    // objective, and moves no budgeted objective further past its
    // budget — the chain rewrite's area saving no longer buys an
    // arbitrary accuracy/fragility cost.
    bool keep = lowers && safe;
    double error_after = error_before;
    double fragility_after = fragility_before;
    if (budgeted && safe) {
      error_after = analysis::plan_error(program_after, plan_after, gate_config);
      fragility_after =
          analysis::plan_fragility(program_after, plan_after, gate_config);
      const bool improves =
          lowers || error_after < error_before - kMetricEpsilon ||
          fragility_after < fragility_before - kMetricEpsilon;
      keep = improves &&
             within_budget(area_before, area_after, config.area_budget_um2,
                           kAreaEpsilon) &&
             within_budget(error_before, error_after, config.error_budget,
                           kMetricEpsilon) &&
             within_budget(fragility_before, fragility_after,
                           config.fragility_budget, kMetricEpsilon);
    }
    if (!keep) {
      report.accepted = false;
      report.area_delta_um2 = 0.0;
      report.error_delta = 0.0;
      report.fragility_delta = 0.0;
      report.nodes_removed = 0;
      report.nodes_folded = 0;
      report.corrections_saved = 0;
      pass_span.arg_str("result", "rejected");
      if (telemetry != nullptr) {
        telemetry->metrics().counter("opt.rewrites_rejected").inc();
      }
      result.reports.push_back(std::move(report));
      continue;
    }

    report.accepted = true;
    report.area_delta_um2 = area_after - area_before;
    area_before = area_after;
    if (budgeted) {
      report.error_delta = error_after - error_before;
      report.fragility_delta = fragility_after - fragility_before;
      error_before = error_after;
      fragility_before = fragility_after;
    }
    pass_span.arg_str("result", "accepted");
    pass_span.arg("nodes_removed",
                  static_cast<std::uint64_t>(report.nodes_removed));
    pass_span.arg("corrections_saved",
                  static_cast<std::uint64_t>(report.corrections_saved));
    pass_span.arg("area_delta_um2", report.area_delta_um2);
    if (telemetry != nullptr) {
      obs::MetricsRegistry& metrics = telemetry->metrics();
      metrics.counter("opt.rewrites_accepted").inc();
      metrics.counter("opt.nodes_removed").add(report.nodes_removed);
      metrics.counter("opt.corrections_saved").add(report.corrections_saved);
    }
    if (rewritten != nullptr) {
      for (NodeId& mapped : result.node_map) {
        if (mapped != graph::kInvalidNode) mapped = rewritten->remap[mapped];
      }
      result.program = std::move(rewritten->program);
    }
    result.plan = std::move(plan_after);
    result.reports.push_back(std::move(report));
  }
  return result;
}

OptAssessment assess(const graph::Program& program,
                     const graph::ProgramPlan& plan,
                     const OptResult& optimized, const OptConfig& config) {
  obs::Span span(obs::tracer_of(obs::fallback(config.telemetry)),
                 "opt.assess", "opt");
  OptAssessment out;
  out.area_before_um2 = modeled_area(program, plan, config);
  out.area_after_um2 = modeled_area(optimized.program, optimized.plan, config);
  analysis::AnalyzerConfig fragility_config;
  fragility_config.width = config.width;
  fragility_config.sync_depth = config.planner.sync_depth;
  fragility_config.shuffle_depth = config.planner.shuffle_depth;
  fragility_config.telemetry = config.telemetry;
  out.fragility_before =
      analysis::plan_fragility(program, plan, fragility_config);
  out.fragility_after = analysis::plan_fragility(
      optimized.program, optimized.plan, fragility_config);
  analysis::AnalyzerConfig error_config = fragility_config;
  error_config.stream_length = config.error_stream_length;
  out.error_before = analysis::plan_error(program, plan, error_config);
  out.error_after =
      analysis::plan_error(optimized.program, optimized.plan, error_config);
  span.arg("area_before_um2", out.area_before_um2);
  span.arg("area_after_um2", out.area_after_um2);
  span.arg("fragility_before", out.fragility_before);
  span.arg("fragility_after", out.fragility_after);
  span.arg("error_before", out.error_before);
  span.arg("error_after", out.error_after);
  out.cost_delta = hw::evaluate_delta(
      program.base_netlist(config.width) + plan.overhead,
      optimized.program.base_netlist(config.width) + optimized.plan.overhead,
      config.cost);
  return out;
}

}  // namespace sc::opt
