#include "opt/optimize.hpp"

#include <numeric>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "analysis/error_model.hpp"
#include "obs/telemetry.hpp"

namespace sc::opt {

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
  obs::Span span(obs::tracer_of(obs::fallback(config.telemetry)),
                 "opt.optimize", "opt");
  OptResult result;
  result.program = program;
  result.plan = plan;
  result.node_map.resize(program.node_count());
  std::iota(result.node_map.begin(), result.node_map.end(), 0u);
  const PassManager pipeline = default_pipeline(config);
  result.reports =
      pipeline.run(result.program, result.plan, result.node_map, config);
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
