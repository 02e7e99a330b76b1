/// Cross-backend differential fuzzer: random registry programs x random
/// fault plans x random configs (SNG width, shuffle and sync depths) x odd
/// lengths and chunk sizes, asserting bit-identity of the reference /
/// kernel / engine backends (default-chunk and small-chunk pooled session)
/// with and without ExecConfig::optimize.  The config draws straddle the
/// kernel layer's edges: shuffle depths 63/64 (the SIMD shim's vector
/// tiers stop at 63) and 64/65 (the kernel cap), widths past the LFSR
/// orbit tables (16/17), and lengths past the kernels' 4096-value RNG
/// block.
///
/// Reproducing a failure: every case logs its 64-bit case seed and drawn
/// config via SCOPED_TRACE, so the ctest output names the exact (program,
/// fault plan, config, length, chunk size) that diverged — rerun with
/// SC_FUZZ_SEED=<base seed>
/// (and SC_FUZZ_CASES if the failing index was past the default budget) to
/// replay the identical campaign.  SC_FUZZ_CASES scales the budget: the CI
/// matrix runs the default 220 cases (the ISSUE's >= 200 acceptance bar),
/// the sanitizer job the same via ctest.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "engine/session.hpp"
#include "fault_fixtures.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph_fixtures.hpp"
#include "obs/telemetry.hpp"

namespace sc::graph {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 0);
}

template <typename T, std::size_t N>
T pick(std::mt19937_64& gen, const T (&choices)[N]) {
  return choices[gen() % N];
}

TEST(DifferentialFuzz, BackendsBitIdenticalUnderRandomFaultPlans) {
  const std::uint64_t base_seed = env_u64("SC_FUZZ_SEED", 0xD1FFull);
  const std::uint64_t cases = env_u64("SC_FUZZ_CASES", 220);
  const Strategy strategies[] = {Strategy::kNone, Strategy::kManipulation,
                                 Strategy::kRegeneration};
  const unsigned widths[] = {3, 4, 5, 8, 12, 16, 17, 24, 32};
  const std::size_t shuffle_depths[] = {1,  2,  7,  8,  12, 13,
                                        33, 62, 63, 64, 65, 100};
  const unsigned sync_depths[] = {1, 2, 3, 8};
  const std::size_t chunk_bits_choices[] = {64, 100, 128, 192, 256, 4096};

  std::size_t faulted_cases = 0;
  for (std::uint64_t index = 0; index < cases; ++index) {
    const std::uint64_t case_seed = base_seed + index;
    SCOPED_TRACE("case " + std::to_string(index) + " seed " +
                 std::to_string(case_seed) + " (SC_FUZZ_SEED=" +
                 std::to_string(base_seed) + ")");
    std::mt19937_64 gen(case_seed);

    const Program program = fixtures::random_program(gen, 3 + gen() % 7);
    const ProgramPlan plan = plan_program(program, pick(gen, strategies));
    const fault::FaultPlan faults =
        fault::fixtures::random_fault_plan(gen, program);
    faulted_cases += !faults.empty();

    ExecConfig config;
    // Odd shapes incl. tiny tails; one case in four crosses an RNG block.
    config.stream_length =
        gen() % 4 == 0 ? 4000 + gen() % 5001 : 1 + gen() % 700;
    config.width = pick(gen, widths);
    config.shuffle_depth = pick(gen, shuffle_depths);
    config.sync_depth = pick(gen, sync_depths);
    config.seed = static_cast<std::uint32_t>(gen());
    config.optimize = index % 2 == 1;  // with and without the optimizer
    config.fault_plan = &faults;

    const std::size_t chunk_bits = pick(gen, chunk_bits_choices);
    SCOPED_TRACE("width " + std::to_string(config.width) + " shuffle_depth " +
                 std::to_string(config.shuffle_depth) + " sync_depth " +
                 std::to_string(config.sync_depth) + " stream_length " +
                 std::to_string(config.stream_length) + " chunk_bits " +
                 std::to_string(chunk_bits) + " strategy " +
                 to_string(plan.strategy) + " optimize " +
                 std::to_string(config.optimize));
    engine::Session session({1 + static_cast<unsigned>(index % 2), chunk_bits,
                             case_seed});
    std::unique_ptr<ExecutorBackend> candidates[] = {
        make_backend(BackendKind::kKernel),
        make_backend(BackendKind::kEngine),
        make_engine_backend(session),
    };
    const ExecutionResult want =
        make_backend(BackendKind::kReference)->run(program, plan, config);
    // A fifth of the campaign runs the candidates under full telemetry
    // (tracing + metrics + a probe) against the *unobserved* reference:
    // observation must be invisible at bit level, fault plans included.
    obs::Telemetry telemetry;
    if (index % 5 == 0) {
      telemetry.add_probe({"x", "", 96});
      config.telemetry = &telemetry;
    }
    for (const auto& candidate : candidates) {
      ASSERT_TRUE(
          fault::fixtures::conforms(*candidate, program, plan, config, want));
    }
  }
  // The campaign must actually exercise faults (empty plans are allowed
  // per case but cannot dominate).
  EXPECT_GT(faulted_cases, cases / 2);
}

}  // namespace
}  // namespace sc::graph
