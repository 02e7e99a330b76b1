#include "opt/pass.hpp"

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/error_model.hpp"
#include "obs/telemetry.hpp"

namespace sc::opt {

using graph::FixKind;
using graph::NodeId;
using graph::PairFix;
using graph::ProgramPlan;

namespace {

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

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<PassReport> PassManager::run(graph::Program& program,
                                         ProgramPlan& plan,
                                         std::vector<NodeId>& node_map,
                                         const OptConfig& config) const {
  obs::Telemetry* const telemetry = obs::fallback(config.telemetry);
  obs::Tracer* const tracer = obs::tracer_of(telemetry);
  const bool budgeted = config.budgeted();
  const analysis::AnalyzerConfig gate_config = gate_analyzer_config(config);
  // Carried across passes so each rewrite pays one area and one
  // error/fragility evaluation, not two: the accepted state's metrics
  // become the next pass's "before".  A pass that reports no rewrite
  // leaves program and plan as they were, and a rejected one is rolled
  // back, so neither moves them.
  double area_before = modeled_area(program, plan, config);
  double error_before = 0.0;
  double fragility_before = 0.0;
  if (budgeted) {
    error_before = analysis::plan_error(program, plan, gate_config);
    fragility_before = analysis::plan_fragility(program, plan, gate_config);
  }
  std::vector<PassReport> reports;
  reports.reserve(passes_.size());
  for (const std::unique_ptr<Pass>& pass : passes_) {
    obs::Span span(tracer, "opt." + pass->name(), "opt");
    const graph::Program before_program = program;
    const ProgramPlan before_plan = plan;

    PassReport report;
    report.pass = pass->name();
    std::vector<NodeId> remap = pass->run(program, plan, config, report);
    if (telemetry != nullptr) telemetry->metrics().counter("opt.passes").inc();
    if (!report.changed) {
      span.arg_str("result", "no-rewrite");
      reports.push_back(std::move(report));
      continue;
    }
    if (!remap.empty()) {
      // The program changed: replan under the same strategy so fixes,
      // relations, and violations track the rewritten operand identities.
      plan = plan_program(program, plan.strategy, config.planner);
    }
    graph::price_plan(plan, config.planner);

    const double area_after = modeled_area(program, plan, config);
    const bool lowers =
        area_after < area_before - kAreaEpsilon ||
        (area_after <= area_before + kAreaEpsilon &&
         (report.nodes_removed != 0 || report.corrections_saved != 0));
    const bool safe = plan_covers(plan) &&
                      plan.violations.size() <= before_plan.violations.size();

    // Legacy gate: keep what lowers area and stays safe.  Pareto gate
    // (any finite budget): keep what is safe, improves at least one
    // objective, and moves no budgeted objective further past its
    // budget — the chain rewrite's area saving no longer buys an
    // arbitrary accuracy/fragility cost.
    bool keep = lowers && safe;
    double error_after = error_before;
    double fragility_after = fragility_before;
    if (budgeted && safe) {
      error_after = analysis::plan_error(program, plan, gate_config);
      fragility_after =
          analysis::plan_fragility(program, plan, gate_config);
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
      program = before_program;
      plan = before_plan;
      report.accepted = false;
      report.area_delta_um2 = 0.0;
      report.error_delta = 0.0;
      report.fragility_delta = 0.0;
      report.nodes_removed = 0;
      report.nodes_folded = 0;
      report.corrections_saved = 0;
      span.arg_str("result", "rejected");
      if (telemetry != nullptr) {
        telemetry->metrics().counter("opt.rewrites_rejected").inc();
      }
      reports.push_back(std::move(report));
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
    span.arg_str("result", "accepted");
    span.arg("nodes_removed", static_cast<std::uint64_t>(report.nodes_removed));
    span.arg("corrections_saved",
             static_cast<std::uint64_t>(report.corrections_saved));
    span.arg("area_delta_um2", report.area_delta_um2);
    if (telemetry != nullptr) {
      obs::MetricsRegistry& metrics = telemetry->metrics();
      metrics.counter("opt.rewrites_accepted").inc();
      metrics.counter("opt.nodes_removed").add(report.nodes_removed);
      metrics.counter("opt.corrections_saved").add(report.corrections_saved);
    }
    if (!remap.empty()) {
      for (NodeId& mapped : node_map) {
        if (mapped != graph::kInvalidNode) mapped = remap[mapped];
      }
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace sc::opt
