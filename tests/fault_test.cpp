/// Tests for the fault-injection subsystem (src/fault/): error-process
/// statistics and independence, edge-fault semantics (stuck-at, flip,
/// burst, transient windows), plan resolution and validation, FSM state
/// corruption, and — the PR 2 kernel_test gap — directed conformance cases
/// with faults landing on exact kernel chunk boundaries and inside the
/// final partial chunk for synchronizer / desynchronizer / chain-link
/// fixes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "bitstream/correlation.hpp"
#include "engine/session.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "fault/sweep.hpp"
#include "fault_fixtures.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace sc::fault {
namespace {

using fixtures::conforms;
using fixtures::two_input;
using graph::BackendKind;
using graph::ExecConfig;
using graph::ExecutionResult;
using graph::GraphBuilder;
using graph::NodeId;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;
using graph::Value;

Program shared_max() { return two_input("max", /*shared_group=*/true); }

// --- the error processes ----------------------------------------------------

TEST(ErrorProcess, RateIsAccurateAndReplayable) {
  const std::uint64_t key = fault_key(7, "edge", ErrorKind::kBitFlip, 0);
  const std::size_t n = 1 << 16;
  for (const double rate : {0.01, 0.1, 0.5}) {
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (draw_at(key, i, rate)) ++fired;
    }
    const double measured = static_cast<double>(fired) / n;
    EXPECT_NEAR(measured, rate, 4.0 * std::sqrt(rate * (1 - rate) / n))
        << "rate " << rate;
    // Replay: same key, same indices, same decisions.
    std::size_t again = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (draw_at(key, i, rate)) ++again;
    }
    EXPECT_EQ(fired, again);
  }
  EXPECT_FALSE(draw_at(key, 0, 0.0));
  EXPECT_TRUE(draw_at(key, 0, 1.0));
}

TEST(ErrorProcess, DistinctEdgesSaltsAndKindsAreIndependent) {
  // Two error processes must not fire in lockstep: build the decision
  // streams of each key pair and bound their SCC — the same audit the rng
  // suite applies to generator lanes, here for the fault sources.
  const std::size_t n = 1 << 14;
  const std::uint64_t keys[] = {
      fault_key(7, "x", ErrorKind::kBitFlip, 0),
      fault_key(7, "x", ErrorKind::kBitFlip, 1),   // salt differs
      fault_key(7, "y", ErrorKind::kBitFlip, 0),   // edge differs
      fault_key(7, "x", ErrorKind::kBurst, 0),     // kind differs
      fault_key(8, "x", ErrorKind::kBitFlip, 0),   // master seed differs
  };
  std::vector<Bitstream> decisions;
  for (const std::uint64_t key : keys) {
    Bitstream bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (draw_at(key, i, 0.5)) bits.set(i, true);
    }
    decisions.push_back(std::move(bits));
  }
  for (std::size_t a = 0; a < decisions.size(); ++a) {
    EXPECT_NE(keys[a], 0u);
    for (std::size_t b = a + 1; b < decisions.size(); ++b) {
      EXPECT_LT(std::abs(scc(decisions[a], decisions[b])), 0.05)
          << "keys " << a << " and " << b << " fire in lockstep";
    }
  }
}

// --- edge-fault semantics ---------------------------------------------------

TEST(EdgeFaults, StuckAtForcesTheEdgeAndItsConsumers) {
  const Program p = shared_max();
  const ProgramPlan plan = plan_program(p, Strategy::kNone);
  ExecConfig config;
  config.stream_length = 256;

  FaultPlan stuck1;
  stuck1.edges.push_back({"y", ErrorKind::kStuckAt1, 0.0});
  config.fault_plan = &stuck1;
  const ExecutionResult r1 =
      graph::make_backend(BackendKind::kKernel)->run(p, plan, config);
  EXPECT_DOUBLE_EQ(r1.streams[p.find("y")].value(), 1.0);
  // max(x, 1) = 1: the OR consumer sees the stuck wire.
  EXPECT_DOUBLE_EQ(r1.values[0], 1.0);

  FaultPlan stuck0;
  stuck0.edges.push_back({"y", ErrorKind::kStuckAt0, 0.0});
  config.fault_plan = &stuck0;
  const ExecutionResult r0 =
      graph::make_backend(BackendKind::kKernel)->run(p, plan, config);
  EXPECT_DOUBLE_EQ(r0.streams[p.find("y")].value(), 0.0);
  // max(x, 0) = x under SCC-agnostic OR with y = const 0.
  EXPECT_DOUBLE_EQ(r0.values[0], r0.streams[p.find("x")].value());
}

TEST(EdgeFaults, BitFlipXorsTheCleanStreamExactlyWhereTheProcessFired) {
  const Program p = shared_max();
  const ProgramPlan plan = plan_program(p, Strategy::kNone);
  ExecConfig config;
  config.stream_length = 777;

  const ExecutionResult clean =
      graph::make_backend(BackendKind::kReference)->run(p, plan, config);
  FaultPlan faults;
  faults.seed = 99;
  faults.edges.push_back({"x", ErrorKind::kBitFlip, 0.1, 16, 5});
  config.fault_plan = &faults;
  const ExecutionResult faulted =
      graph::make_backend(BackendKind::kReference)->run(p, plan, config);

  const std::uint64_t key = fault_key(99, "x", ErrorKind::kBitFlip, 5);
  const NodeId x = p.find("x");
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < config.stream_length; ++i) {
    const bool expect_flip = draw_at(key, i, 0.1);
    EXPECT_EQ(faulted.streams[x].get(i), clean.streams[x].get(i) ^ expect_flip)
        << "bit " << i;
    flipped += expect_flip;
  }
  EXPECT_GT(flipped, 0u);
}

TEST(EdgeFaults, BurstCorruptsWholeAlignedWindows) {
  const Program p = shared_max();
  const ProgramPlan plan = plan_program(p, Strategy::kNone);
  ExecConfig config;
  config.stream_length = 1024;

  const ExecutionResult clean =
      graph::make_backend(BackendKind::kReference)->run(p, plan, config);
  FaultPlan faults;
  faults.edges.push_back({"x", ErrorKind::kBurst, 0.3, /*burst_length=*/32});
  config.fault_plan = &faults;
  const ExecutionResult faulted =
      graph::make_backend(BackendKind::kReference)->run(p, plan, config);

  const NodeId x = p.find("x");
  std::size_t corrupted_windows = 0;
  for (std::size_t w = 0; w < config.stream_length / 32; ++w) {
    // Within one window, either every bit flipped or none did.
    const bool first =
        faulted.streams[x].get(w * 32) != clean.streams[x].get(w * 32);
    for (std::size_t i = 1; i < 32; ++i) {
      EXPECT_EQ(faulted.streams[x].get(w * 32 + i) !=
                    clean.streams[x].get(w * 32 + i),
                first)
          << "window " << w << " bit " << i;
    }
    corrupted_windows += first;
  }
  EXPECT_GT(corrupted_windows, 2u);
  EXPECT_LT(corrupted_windows, 20u);  // ~0.3 * 32 windows
}

TEST(EdgeFaults, TransientWindowLimitsTheBlastRadius) {
  const Program p = shared_max();
  const ProgramPlan plan = plan_program(p, Strategy::kNone);
  ExecConfig config;
  config.stream_length = 512;

  const ExecutionResult clean =
      graph::make_backend(BackendKind::kReference)->run(p, plan, config);
  FaultPlan faults;
  EdgeFault fault;
  fault.edge = "x";
  fault.kind = ErrorKind::kBitFlip;
  fault.rate = 1.0;  // deterministic inversion inside the window
  fault.begin = 100;
  fault.end = 140;
  faults.edges.push_back(fault);
  config.fault_plan = &faults;
  const ExecutionResult faulted =
      graph::make_backend(BackendKind::kReference)->run(p, plan, config);

  const NodeId x = p.find("x");
  for (std::size_t i = 0; i < config.stream_length; ++i) {
    const bool inside = i >= 100 && i < 140;
    EXPECT_EQ(faulted.streams[x].get(i), clean.streams[x].get(i) ^ inside)
        << "bit " << i;
  }
}

// --- resolution & validation ------------------------------------------------

TEST(Resolution, UnknownNamesSkipButValidateThrows) {
  const Program p = shared_max();
  FaultPlan plan;
  plan.edges.push_back({"no-such-wire", ErrorKind::kStuckAt1, 0.0});
  const ResolvedFaultPlan resolved =
      resolve(&plan, p, plan_program(p, Strategy::kNone));
  EXPECT_FALSE(resolved.any_edges);  // skipped: the wire does not exist
  EXPECT_THROW(validate(plan, p), std::invalid_argument);

  FaultPlan bad_burst;
  bad_burst.edges.push_back({"x", ErrorKind::kBurst, 0.1, /*burst_length=*/0});
  EXPECT_THROW(validate(bad_burst, p), std::invalid_argument);

  FaultPlan fsm_on_input;
  fsm_on_input.fsms.push_back({"x", 0, 0, -1});
  EXPECT_THROW(validate(fsm_on_input, p), std::invalid_argument);

  FaultPlan good;
  good.edges.push_back({"out", ErrorKind::kBitFlip, 0.1});
  good.fsms.push_back({"out", 10, 0, -1});
  EXPECT_NO_THROW(validate(good, p));
  EXPECT_EQ(resolve(nullptr, p, plan_program(p, Strategy::kNone)).any_edges,
            false);
}

// --- FSM state corruption ---------------------------------------------------

TEST(FsmCorruption, DisturbsTheOutputAndStaysBackendIdentical) {
  // Shared-trace multiply gets a planned decorrelator; wiping its shuffle
  // buffers mid-stream must visibly disturb the output (the buffers hold
  // in-flight bits and the replayed address schedule shifts) and every
  // backend must place the wipe on the same absolute cycle.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.45, 0);
  b.output(b.op("multiply", {x, y}), "out");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  ASSERT_EQ(plan.inserted_units, 1u);

  ExecConfig config;
  config.stream_length = 600;
  const auto kernel = graph::make_backend(BackendKind::kKernel);
  const ExecutionResult clean = kernel->run(p, plan, config);

  FaultPlan seu;
  seu.fsms.push_back({"out", /*first=*/300, /*period=*/0, /*lane=*/-1});
  config.fault_plan = &seu;
  const ExecutionResult hit = kernel->run(p, plan, config);

  const NodeId out = p.outputs()[0];
  EXPECT_NE(clean.streams[out], hit.streams[out]);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(clean.streams[out].get(i), hit.streams[out].get(i))
        << "corruption leaked backward to bit " << i;
  }

  auto engine = graph::make_backend(BackendKind::kEngine);
  EXPECT_TRUE(conforms(*kernel, p, plan, config));
  EXPECT_TRUE(conforms(*engine, p, plan, config));
}

TEST(FsmCorruption, PeriodicAndLaneTargetedFaultsAgreeAcrossBackends) {
  // bernstein-x2-3 fed one stream three times: three pairwise decorrelator
  // fixes, so lane targeting matters.
  GraphBuilder b;
  const Value x = b.input("x", 0.5, 0);
  b.output(b.op("bernstein-x2-3", {x, x, x}), "fx");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  ASSERT_GE(plan.inserted_units, 3u);

  for (const std::int32_t lane : {-1, 0, 2}) {
    FaultPlan seu;
    seu.fsms.push_back({"fx", /*first=*/37, /*period=*/97, lane});
    ExecConfig config;
    config.stream_length = 500;
    config.fault_plan = &seu;
    const auto kernel = graph::make_backend(BackendKind::kKernel);
    const auto engine = graph::make_backend(BackendKind::kEngine);
    EXPECT_TRUE(conforms(*kernel, p, plan, config)) << "lane " << lane;
    EXPECT_TRUE(conforms(*engine, p, plan, config)) << "lane " << lane;
  }
}

TEST(FsmCorruption, SharedCircuitSeuHitsEverySiblingConsumer) {
  // Two siblings read the same (x, z) pair and each need a synchronizer;
  // the optimizer's sharing pass models them as ONE circuit fanning out
  // (PairFix::shared_with).  An SEU addressed through either sibling must
  // therefore disturb BOTH outputs — one state register, one blast radius
  // — while without the optimizer the two mirrors are separate physical
  // circuits and the fault stays local to the named op.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value z = b.input("z", 0.4, 1);
  b.output(b.op("subtract", {x, z}), "diff");
  b.output(b.op("min", {x, z}), "floor");
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  ASSERT_EQ(plan.inserted_units, 2u);

  const auto kernel = graph::make_backend(BackendKind::kKernel);
  FaultPlan seu;
  seu.fsms.push_back({"diff", /*first=*/16, /*period=*/9, /*lane=*/-1});
  const NodeId diff = p.find("diff");
  const NodeId floor = p.find("floor");
  for (const bool optimize : {false, true}) {
    ExecConfig config;
    config.stream_length = 512;
    config.optimize = optimize;
    const ExecutionResult clean = kernel->run(p, plan, config);
    config.fault_plan = &seu;
    const ExecutionResult hit = kernel->run(p, plan, config);
    EXPECT_NE(clean.streams[diff], hit.streams[diff]) << optimize;
    if (optimize) {
      EXPECT_NE(clean.streams[floor], hit.streams[floor])
          << "shared circuit: the wipe must fan out to the sibling";
    } else {
      EXPECT_EQ(clean.streams[floor], hit.streams[floor])
          << "separate circuits: the wipe must stay local to 'diff'";
    }
    const auto engine = graph::make_backend(BackendKind::kEngine);
    EXPECT_TRUE(conforms(*engine, p, plan, config)) << optimize;
  }
}

TEST(Resolution, FaultsOnValuesTheOptimizerMergesAwayVanishIdentically) {
  // CSE keeps the first duplicate's name; the merged-away duplicate's
  // wire — and any fault naming it — vanishes from the optimized design,
  // the same way a removed dead value's would.  Pinned here so the
  // documented contract (fault.hpp) has a regression.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.45, 1);
  b.output(b.op("multiply", {x, y}), "keep");
  b.output(b.op("multiply", {x, y}), "dup");  // CSE merges into "keep"
  const Program p = b.build();
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);

  FaultPlan faults;
  faults.edges.push_back({"dup", ErrorKind::kStuckAt1, 0.0});
  ExecConfig config;
  config.stream_length = 256;
  config.optimize = true;
  const auto kernel = graph::make_backend(BackendKind::kKernel);
  const ExecutionResult clean = kernel->run(p, plan, config);
  config.fault_plan = &faults;
  const ExecutionResult faulted = kernel->run(p, plan, config);
  // The faulted wire does not exist in the optimized design: no effect,
  // and identically none on every backend.
  for (std::size_t s = 0; s < clean.streams.size(); ++s) {
    EXPECT_EQ(clean.streams[s], faulted.streams[s]) << "stream " << s;
  }
  EXPECT_TRUE(conforms(*graph::make_backend(BackendKind::kEngine), p, plan,
                       config));

  // The survivor's own name still faults normally.
  faults.edges[0].edge = "keep";
  const ExecutionResult survivor_hit = kernel->run(p, plan, config);
  EXPECT_NE(clean.streams[p.find("keep")],
            survivor_hit.streams[p.find("keep")]);
}

// --- directed: faults on kernel chunk boundaries and flush tails ------------
// PR 2's kernel_test proved chunked == whole-stream on clean runs; these
// close the faulted gap: corruption landing exactly on a chunk boundary,
// inside the final partial chunk, and on the last bit of an exact-multiple
// stream must not shift under chunking for any fix kind.

struct BoundaryCase {
  const char* label;
  std::size_t stream_length;  // chunk_bits = 128
};

class ChunkBoundaryFaults : public ::testing::Test {
 protected:
  static constexpr std::size_t kChunkBits = 128;

  void check(const Program& p, const ProgramPlan& plan,
             const char* fix_label) {
    const BoundaryCase cases[] = {
        {"final partial chunk", 3 * kChunkBits + 37},
        {"exact chunk multiple", 3 * kChunkBits},
        {"one past a boundary", 2 * kChunkBits + 1},
    };
    for (const BoundaryCase& c : cases) {
      // Faults pinned to the interesting indices: a deterministic flip
      // window straddling the first chunk boundary, a stuck window
      // covering the final (possibly partial) chunk's interior, and FSM
      // wipes at an exact boundary and inside the last chunk.
      FaultPlan faults;
      EdgeFault straddle;
      straddle.edge = "x";
      straddle.kind = ErrorKind::kBitFlip;
      straddle.rate = 1.0;
      straddle.begin = kChunkBits - 2;
      straddle.end = kChunkBits + 2;
      faults.edges.push_back(straddle);
      EdgeFault tail;
      tail.edge = "y";
      tail.kind = ErrorKind::kStuckAt1;
      tail.begin = (c.stream_length / kChunkBits) * kChunkBits;
      tail.end = c.stream_length;  // empty when length is an exact multiple
      if (tail.begin == c.stream_length) tail.begin = c.stream_length - 1;
      faults.edges.push_back(tail);
      faults.fsms.push_back({"out", /*first=*/2 * kChunkBits, 0, -1});
      faults.fsms.push_back({"out", /*first=*/c.stream_length - 1, 0, -1});

      ExecConfig config;
      config.stream_length = c.stream_length;
      config.fault_plan = &faults;

      engine::Session session({1, kChunkBits, 0x5eed});
      const auto chunked = graph::make_engine_backend(session);
      const auto kernel = graph::make_backend(BackendKind::kKernel);
      EXPECT_TRUE(conforms(*chunked, p, plan, config))
          << fix_label << ": " << c.label;
      EXPECT_TRUE(conforms(*kernel, p, plan, config))
          << fix_label << ": " << c.label;
    }
  }
};

TEST_F(ChunkBoundaryFaults, Synchronizer) {
  const Program p = two_input("max", false);
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  ASSERT_EQ(plan.fixes[0].fix, graph::FixKind::kSynchronizer);
  check(p, plan, "synchronizer");
}

TEST_F(ChunkBoundaryFaults, Desynchronizer) {
  const Program p = two_input("saturating-add", false);
  const ProgramPlan plan = plan_program(p, Strategy::kManipulation);
  ASSERT_EQ(plan.fixes[0].fix, graph::FixKind::kDesynchronizer);
  check(p, plan, "desynchronizer");
}

TEST_F(ChunkBoundaryFaults, DecorrelatorChainLink) {
  // Chain links are optimizer-emitted; a manual one-fix plan over
  // multiply(x, x) drives the chain-link kernel directly.
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.45, 0);  // unused by the fix, faulted edge
  b.output(b.op("multiply", {x, x}), "out");
  b.output(b.op("max", {y, y}), "aux");
  const Program p = b.build();
  ProgramPlan plan;
  plan.strategy = Strategy::kManipulation;
  graph::PairFix fix;
  fix.op_node = p.find("out");
  fix.operand_a = 0;
  fix.operand_b = 1;
  fix.requirement = graph::Requirement::kUncorrelated;
  fix.relation = graph::Relation::kPositive;
  fix.fix = graph::FixKind::kDecorrelatorChain;
  plan.fixes.push_back(fix);
  plan.inserted_units = 1;
  check(p, plan, "chain-link");
}

// --- the sweep analyzer -----------------------------------------------------

TEST(Sweep, ReproducesTheReCo1OrderingAndRecoveryAsymmetry) {
  SweepConfig config;
  config.stream_length = 2048;
  const SweepReport report = sweep(config);
  EXPECT_TRUE(report.reco1_ordering_holds());

  // Clean runs drift nothing; faulted shared-trace pairs lose SCC.
  for (const SweepRow& row : report.rows) {
    if (row.regime == "correlated") {
      EXPECT_NEAR(row.scc_clean, 1.0, 1e-9) << row.circuit;
      if (row.rate >= 0.05) {
        EXPECT_LT(row.scc_faulty, 0.9)
            << row.circuit << " rate " << row.rate;
      }
    }
  }

  // Recovery asymmetry: saved-credit FSMs re-converge fast; shuffle-buffer
  // circuits replay a shifted schedule and stay divergent far longer.
  std::size_t sync_depth = 0, decor_depth = 0;
  for (const RecoveryRow& row : report.recovery) {
    if (row.fix == "synchronizer") sync_depth = row.recovery_depth;
    if (row.fix == "decorrelator") decor_depth = row.recovery_depth;
  }
  EXPECT_LT(sync_depth, 64u);
  EXPECT_GT(decor_depth, sync_depth);
}

}  // namespace
}  // namespace sc::fault
