/// \file optimize.hpp
/// One-call front of the optimizer subsystem: opt::optimize runs the
/// passes (pass.hpp) over a planned program, keeps or drops each proposal
/// at its cost/safety gate, and returns the rewritten program/plan plus
/// per-pass diff reports.  Backends invoke it
/// automatically when ExecConfig::optimize is set.  opt::assess prices a
/// rewrite — modeled area, static fragility, predicted error and the
/// full-design cost change — for the callers that print or check it;
/// optimize itself never builds that report.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "opt/pass.hpp"

namespace sc::opt {

/// The rewrite optimize() produced.
struct OptResult {
  graph::Program program;
  graph::ProgramPlan plan;
  /// Original node id -> optimized node id; graph::kInvalidNode for
  /// removed nodes, the survivor's id for CSE-merged duplicates (their
  /// streams are one and the same).
  std::vector<graph::NodeId> node_map;
  std::vector<PassReport> reports;

  [[nodiscard]] std::size_t nodes_removed() const;
  [[nodiscard]] std::size_t corrections_saved() const;
  /// One line per pass report.
  [[nodiscard]] std::string summary() const;
};

/// What a rewrite costs and buys, incoming design against optimized one.
struct OptAssessment {
  double area_before_um2 = 0.0;
  double area_after_um2 = 0.0;
  /// Static fragility (analysis::plan_fragility: per-fix state_bits x
  /// blast x persistence, summed) of the incoming and optimized plans —
  /// the reliability axis the area numbers above cannot see.  The chain
  /// pass trades area *for* fragility (one chain link's upset poisons
  /// every downstream copy); OptConfig::fragility_budget bounds it.
  double fragility_before = 0.0;
  double fragility_after = 0.0;
  /// Predicted worst per-output |error| bound (analysis::plan_error at
  /// OptConfig::error_stream_length bits) of the incoming and optimized
  /// plans — the accuracy axis of the Pareto gate, reported beside area
  /// and fragility whether or not a budget was set.
  double error_before = 0.0;
  double error_after = 0.0;
  /// Full-design cost change (after minus before: area, leakage, dynamic
  /// power, energy) at the config's operating point — negative is saved.
  hw::CostReport cost_delta;

  /// The area, fragility and error totals, one line each.
  [[nodiscard]] std::string summary() const;
};

/// Runs the passes (fold -> cse -> dve -> chain -> share -> drop dead
/// fixes, per config toggles) over (program, plan).  Each proposal is
/// replanned (program rewrites) and priced, then kept only when it passes
/// the gate: the full design's modeled area, and when budgeted its
/// predicted error and fragility, are evaluated once up front and once per
/// proposal, the accepted state's values carrying on as the next pass's
/// baseline.  `node_map` composes the accepted program rewrites'
/// remaps.  config.planner must match the PlannerConfig the plan was made
/// with.
OptResult optimize(const graph::Program& program,
                   const graph::ProgramPlan& plan,
                   const OptConfig& config = {});

/// Prices `optimized` — optimize(program, plan, config)'s result —
/// against the (program, plan) it was made from, at the same config.
OptAssessment assess(const graph::Program& program,
                     const graph::ProgramPlan& plan,
                     const OptResult& optimized, const OptConfig& config = {});

}  // namespace sc::opt
