/// \file fault_fixtures.hpp
/// Reusable differential-conformance fixture for execution backends.
///
/// The contract every ExecutorBackend — current and future — must satisfy:
/// on the same (Program, ProgramPlan, ExecConfig), including any
/// ExecConfig::fault_plan, it produces streams and values bit-identical to
/// the reference backend.  `conforms()` checks one case and reports a
/// self-contained failure message; `random_fault_plan()` draws a fault
/// campaign over a program's named edges so fuzzers can sweep the whole
/// (program x fault plan x length) space from one logged seed.
///
/// Used by tests/differential_test.cpp (the cross-backend fuzzer) and
/// tests/fault_test.cpp (directed edge cases); a new backend earns its
/// place by passing the same fixture.

#pragma once

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace sc::fault::fixtures {

/// Canonical two-input circuit of the fault suites and the golden
/// corpus: out = op(x = 0.7, y = 0.45), with the inputs on one shared or
/// two independent RNG groups.  (fault::sweep builds the same shape
/// internally; src/ cannot depend on this test header.)
inline graph::Program two_input(const char* op, bool shared_group) {
  graph::GraphBuilder b;
  const graph::Value x = b.input("x", 0.7, 0);
  const graph::Value y = b.input("y", 0.45, shared_group ? 0 : 1);
  b.output(b.op(op, {x, y}), "out");
  return b.build();
}

/// Random fault campaign over `program`'s named values: up to three edge
/// faults (kinds, rates, windows, salts all drawn from `gen`) and up to
/// two FSM faults on op nodes.  Plans are occasionally empty — the
/// fault-free path stays fuzzed too.
inline FaultPlan random_fault_plan(std::mt19937_64& gen,
                                   const graph::Program& program) {
  FaultPlan plan;
  plan.seed = gen();
  std::vector<std::string> names;
  std::vector<std::string> op_names;
  for (graph::NodeId id = 0; id < program.node_count(); ++id) {
    const graph::ProgramNode& node = program.node(id);
    if (node.name.empty()) continue;
    names.push_back(node.name);
    if (node.kind == graph::ProgramNode::Kind::kOp) {
      op_names.push_back(node.name);
    }
  }
  if (names.empty()) return plan;

  static const double kRates[] = {0.001, 0.01, 0.05, 0.2, 0.5, 1.0};
  const std::size_t edge_count = gen() % 4;  // 0..3
  for (std::size_t i = 0; i < edge_count; ++i) {
    EdgeFault fault;
    fault.edge = names[gen() % names.size()];
    fault.kind = static_cast<ErrorKind>(gen() % 4);
    fault.rate = kRates[gen() % (sizeof(kRates) / sizeof(kRates[0]))];
    fault.burst_length = 1 + gen() % 64;
    fault.salt = static_cast<std::uint32_t>(gen());
    if (gen() % 3 == 0) {
      // Transient window somewhere in the first 2^10 bits; windows past
      // the stream end are legal (they simply never fire).
      fault.begin = gen() % 1024;
      fault.end = fault.begin + 1 + gen() % 256;
    }
    plan.edges.push_back(std::move(fault));
  }
  if (!op_names.empty()) {
    const std::size_t fsm_count = gen() % 3;  // 0..2
    for (std::size_t i = 0; i < fsm_count; ++i) {
      FsmFault fault;
      fault.op = op_names[gen() % op_names.size()];
      fault.first = gen() % 512;
      fault.period = (gen() % 2 == 0) ? 0 : 1 + gen() % 128;
      fault.lane = (gen() % 2 == 0) ? -1 : static_cast<std::int32_t>(gen() % 3);
      plan.fsms.push_back(std::move(fault));
    }
  }
  return plan;
}

/// One conformance case against a precomputed reference result — use
/// this form to check several candidates without re-running the
/// reference backend per candidate.
inline ::testing::AssertionResult conforms(
    graph::ExecutorBackend& candidate, const graph::Program& program,
    const graph::ProgramPlan& plan, const graph::ExecConfig& config,
    const graph::ExecutionResult& want) {
  const graph::ExecutionResult got = candidate.run(program, plan, config);
  if (want.streams.size() != got.streams.size()) {
    return ::testing::AssertionFailure()
           << candidate.name() << ": " << got.streams.size()
           << " streams, reference has " << want.streams.size();
  }
  for (std::size_t s = 0; s < want.streams.size(); ++s) {
    if (want.streams[s] == got.streams[s]) continue;
    if (want.streams[s].size() != got.streams[s].size()) {
      return ::testing::AssertionFailure()
             << candidate.name() << ": stream of node " << s << " ('"
             << program.node(s).name << "') has " << got.streams[s].size()
             << " bits, reference has " << want.streams[s].size();
    }
    std::size_t first_diff = 0;
    for (; first_diff < want.streams[s].size(); ++first_diff) {
      if (want.streams[s].get(first_diff) != got.streams[s].get(first_diff))
        break;
    }
    return ::testing::AssertionFailure()
           << candidate.name() << ": stream of node " << s << " ('"
           << program.node(s).name << "') diverges at bit " << first_diff
           << " of " << want.streams[s].size();
  }
  if (want.values.size() != got.values.size()) {
    return ::testing::AssertionFailure()
           << candidate.name() << ": output count mismatch";
  }
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    if (want.values[i] != got.values[i]) {
      return ::testing::AssertionFailure()
             << candidate.name() << ": output " << i << " = " << got.values[i]
             << ", reference " << want.values[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// One conformance case: `candidate` must reproduce the reference
/// backend's streams and values bit-for-bit on (program, plan, config).
inline ::testing::AssertionResult conforms(
    graph::ExecutorBackend& candidate, const graph::Program& program,
    const graph::ProgramPlan& plan, const graph::ExecConfig& config) {
  const auto reference = graph::make_backend(graph::BackendKind::kReference);
  return conforms(candidate, program, plan, config,
                  reference->run(program, plan, config));
}

}  // namespace sc::fault::fixtures
