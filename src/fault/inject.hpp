/// \file inject.hpp
/// Resolution and application of FaultPlans during backend execution.
///
/// A FaultPlan names edges and ops by value name; a ResolvedFaultPlan is
/// the same plan bound to one Program's node ids, with each edge fault's
/// hash key precomputed.  The two application primitives are deliberately
/// positional:
///
///  * apply_edge_faults(resolved, node, bits, offset) corrupts a span of a
///    node's output stream given its absolute bit offset — the whole-stream
///    backends call it once per node with offset 0, the chunked engine
///    backend once per chunk with the chunk's offset, and both produce the
///    same bits because every decision hashes the absolute index.
///
///  * wrap_fsm_faults decorates a planned fix's PairTransform with the
///    op's matching FsmFaults.  The wrapper does not override process(),
///    so every backend drives it bit-serially and the corruption lands on
///    the same cycle everywhere, chunk boundaries included.
///
/// Thread-safety: a ResolvedFaultPlan is immutable after resolve(); the
/// engine backend reads it concurrently from its pool workers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "core/pair_transform.hpp"
#include "fault/fault.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace sc::obs {
class Counter;
class Telemetry;
}  // namespace sc::obs

namespace sc::fault {

/// A FaultPlan bound to one Program (see file comment).
struct ResolvedFaultPlan {
  struct EdgeSite {
    const EdgeFault* fault = nullptr;
    std::uint64_t key = 0;  ///< fault_key of this edge fault
    /// Telemetry counter "fault.edge.<name>.corrupted_bits" when the plan
    /// was resolved with telemetry, else nullptr (no counting work at all).
    obs::Counter* corrupted = nullptr;
  };
  struct FsmSite {
    const FsmFault* fault = nullptr;
    /// Which fix of the node this site corrupts, in fixes_for order
    /// (-1 = every fix).  Differs from fault->lane when the site was
    /// expanded across a shared circuit onto a sibling consumer.
    std::int32_t lane = -1;
  };

  /// Per node id: the edge faults on that node's output, in plan order
  /// (later faults see — and may overwrite — earlier ones' corruption).
  std::vector<std::vector<EdgeSite>> edges;
  /// Per node id: the FSM corruption sites of that op's fixes.
  std::vector<std::vector<FsmSite>> fsms;
  std::uint64_t seed = 0;
  bool any_edges = false;
  bool any_fsms = false;
  /// Plan-wide "fault.corrupted_bits" counter (nullptr when resolved
  /// without telemetry).
  obs::Counter* corrupted_total = nullptr;
};

/// Binds `plan` to `program` by value name.  nullptr / empty plans resolve
/// to an all-clear result the backends skip in O(1).  Names not present in
/// the program are skipped: the fault names a wire the executed design
/// does not have (e.g. optimized away), so there is nothing to corrupt —
/// identically on every backend.  Use validate() to reject typos up front.
///
/// FSM faults address the fixes of `exec_plan`, the plan the backend
/// executes, and expand across its correction-sharing groups
/// (PairFix::shared_with): the sharing pass models sibling fixes as ONE
/// physical circuit fanning out to every consumer, so an SEU addressed
/// through any consumer's (op, lane) wipes the mirrored FSM state of every
/// consumer at the same cycles — the shared design's true blast radius.
///
/// When `telemetry` resolves (explicitly or via the SC_METRICS/SC_TRACE
/// env fallback), every edge site gets a "fault.edge.<name>.corrupted_bits"
/// counter and the plan a "fault.corrupted_bits" total; apply_edge_faults
/// then counts the bits it actually changed.  Without telemetry the sites
/// carry null counters and application skips all counting.  Counting never
/// changes the corruption itself.
ResolvedFaultPlan resolve(const FaultPlan* plan, const graph::Program& program,
                          const graph::ProgramPlan& exec_plan,
                          obs::Telemetry* telemetry = nullptr);

/// Throws std::invalid_argument when `plan` names an edge or op absent
/// from `program` (for call sites that want typo safety rather than the
/// optimizer-friendly skip semantics), when an FSM fault targets a
/// non-op node, or when a burst fault has burst_length == 0.
void validate(const FaultPlan& plan, const graph::Program& program);

/// Corrupts `bits` — the span of node `id`'s output starting at absolute
/// bit `offset` — in place.  No-op for nodes without edge faults.
void apply_edge_faults(const ResolvedFaultPlan& resolved, graph::NodeId id,
                       Bitstream& bits, std::size_t offset);

/// Wraps `transform` (a planned fix of op node `id`, at position `lane`
/// in its fixes_for order) with the matching FSM faults.  Returns the
/// transform unchanged when none match, so fault-free fixes keep their
/// table-driven kernels.
std::unique_ptr<core::PairTransform> wrap_fsm_faults(
    std::unique_ptr<core::PairTransform> transform,
    const ResolvedFaultPlan& resolved, graph::NodeId id, unsigned lane);

}  // namespace sc::fault
