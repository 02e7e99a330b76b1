/// Seed-stability regression corpus: thirteen representative registry
/// programs — every fix kind, a regeneration plan, a fault campaign, an
/// optimizer chain rewrite, and one program per accuracy-analysis
/// diagnostic id — executed on all four backend
/// configurations and checksummed bit-for-bit against tests/golden/
/// corpus.hpp.  A mismatch here with the differential suites green means
/// every backend shifted *together*: exactly the failure mode of the PR 3
/// seed-derivation migration, which silently moved all results at once.
/// See tests/golden/README.md for the (intentional-change-only)
/// regeneration workflow.
///
/// GoldenFrames pins the image applications the same way: the §IV
/// pipeline (both entry points, all three variants), the SC Sobel
/// detector and the SC median filter, checksummed pixel for pixel
/// against tests/golden/frames.hpp.
///
/// GoldenOperators pins the other library callers of the whole-stream
/// helpers: the Fig. 5 operators and their serial compositions, the
/// stochastic MLP layer and the ReSC evaluator, against
/// tests/golden/operators.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/ops.hpp"
#include "engine/session.hpp"
#include "fault/fault.hpp"
#include "fault_fixtures.hpp"
#include "func/bernstein.hpp"
#include "golden/corpus.hpp"
#include "golden/frames.hpp"
#include "golden/operators.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph_fixtures.hpp"
#include "img/image.hpp"
#include "img/kernels.hpp"
#include "img/median.hpp"
#include "img/sc_pipeline.hpp"
#include "img/sobel.hpp"
#include "nn/mlp.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "opt/optimize.hpp"
#include "test_util.hpp"

namespace sc::golden {
namespace {

using graph::BackendKind;
using graph::ExecConfig;
using graph::ExecutionResult;
using graph::GraphBuilder;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;
using graph::Value;

/// FNV-1a over 64-bit values, least significant byte first.
struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ULL;
    }
  }
};

/// FNV-1a over every node stream (length + packed words) and the output
/// node list.  Word padding past size() is zeroed by Bitstream's
/// invariant, and the packed words are platform-independent functions of
/// the bit sequence, so the checksum is stable anywhere the bits are.
std::uint64_t checksum(const ExecutionResult& result) {
  Fnv1a fnv;
  fnv.mix(result.streams.size());
  for (const Bitstream& stream : result.streams) {
    fnv.mix(stream.size());
    for (const Bitstream::Word word : stream.words()) fnv.mix(word);
  }
  fnv.mix(result.output_nodes.size());
  for (const graph::NodeId node : result.output_nodes) fnv.mix(node);
  return fnv.hash;
}

struct Case {
  std::string name;
  Program program;
  ProgramPlan plan;
  ExecConfig config;
  // Owned here so config.fault_plan stays valid for the run.
  std::shared_ptr<fault::FaultPlan> faults;
};

using fault::fixtures::two_input;

std::vector<Case> corpus_cases() {
  // Fixed, hand-written values only — no std::uniform_real_distribution,
  // whose output is implementation-defined and would break the corpus
  // across standard libraries.
  ExecConfig base;
  base.stream_length = 333;  // odd: exercises tails everywhere
  base.width = 8;
  base.seed = 3;

  std::vector<Case> cases;
  const auto add = [&](std::string name, Program program, Strategy strategy) {
    Case c;
    c.name = std::move(name);
    c.plan = plan_program(program, strategy);
    c.program = std::move(program);
    c.config = base;
    cases.push_back(std::move(c));
  };

  add("multiply-decor", two_input("multiply", true), Strategy::kManipulation);
  add("max-resync", two_input("max", false), Strategy::kManipulation);
  add("satadd-desync", two_input("saturating-add", false),
      Strategy::kManipulation);
  {
    GraphBuilder b;
    const Value x = b.input("x", 0.5, 0);
    b.output(b.op("bernstein-x2-3", {x, x, x}), "fx");
    add("bernstein-fan", b.build(), Strategy::kManipulation);
  }
  add("divide-sync", two_input("divide", false), Strategy::kManipulation);
  add("regen-shared", two_input("multiply", true), Strategy::kRegeneration);
  {
    // Every edge-error kind plus an FSM wipe at once: pins the fault hash
    // scheme (fault_key / hash_at) and the injection order.
    Case c;
    c.name = "faulted-mixed";
    c.program = two_input("max", false);
    c.plan = plan_program(c.program, Strategy::kManipulation);
    c.config = base;
    c.faults = std::make_shared<fault::FaultPlan>();
    c.faults->seed = 0xFA170;
    c.faults->edges.push_back({"x", fault::ErrorKind::kBitFlip, 0.05, 16, 0});
    c.faults->edges.push_back({"y", fault::ErrorKind::kBurst, 0.1, 24, 1});
    fault::EdgeFault stuck;
    stuck.edge = "x";
    stuck.kind = fault::ErrorKind::kStuckAt1;
    stuck.begin = 300;
    stuck.end = 320;
    c.faults->edges.push_back(stuck);
    fault::EdgeFault dead;
    dead.edge = "out";
    dead.kind = fault::ErrorKind::kStuckAt0;
    dead.begin = 50;
    dead.end = 60;
    c.faults->edges.push_back(dead);
    c.faults->fsms.push_back({"out", 150, 0, -1});
    c.config.fault_plan = c.faults.get();
    cases.push_back(std::move(c));
  }
  {
    // The optimizer's chain rewrite on the 16-way fan-out: pins the
    // chain pass, seed_tag preservation, and the rebuild paths.
    Case c;
    c.name = "optimized-chain";
    c.program = graph::fixtures::fanout16_program();
    c.plan = plan_program(c.program, Strategy::kManipulation);
    c.config = base;
    c.config.optimize = true;
    cases.push_back(std::move(c));
  }
  // One program per accuracy-analysis diagnostic id (mirrors the
  // examples/programs/ lint corpus): their bit-level streams are pinned
  // here, their diagnostic JSON by AccuracyDiagnosticJsonIsByteStable.
  {
    GraphBuilder b;
    b.output(b.op("stanh-8", {b.input("x", 0.3, 0)}), "t");
    add("precision-stanh", b.build(), Strategy::kManipulation);
  }
  {
    GraphBuilder b;
    const Value a = b.input("a", 0.95, 0);
    const Value y = b.input("b", 0.9, 1);
    b.output(b.op("saturating-add", {a, y}), "s");
    add("saturation-or", b.build(), Strategy::kManipulation);
  }
  {
    GraphBuilder b;
    const Value a = b.input("a", 0.5, 0);
    const Value y = b.input("b", 0.5, 0);
    b.output(b.op("subtract", {a, y}), "d");
    add("corrbias-xor", b.build(), Strategy::kManipulation);
  }
  {
    GraphBuilder b;
    const Value x = b.input("x", 0.8, 0);
    const Value y = b.input("y", 0.6, 0);
    b.output(b.op("multiply", {x, y}), "p");
    add("shortstream-mul", b.build(), Strategy::kManipulation);
  }
  {
    Case c;
    c.name = "chain-unrec";
    GraphBuilder b;
    const Value x = b.input("x", 0.7, 0);
    b.output(b.op("bernstein-x2-3", {x, x, x}), "poly");
    c.program = b.build();
    c.plan = plan_program(c.program, Strategy::kManipulation);
    c.config = base;
    c.config.optimize = true;
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(GoldenCorpus, BitLevelResultsMatchTheCommittedChecksums) {
  const bool print = std::getenv("SC_GOLDEN_PRINT") != nullptr;
  if (print) std::printf("inline constexpr GoldenEntry kGoldenCorpus[] = {\n");

  for (const Case& c : corpus_cases()) {
    engine::Session session({1, /*chunk_bits=*/128, 0x5eed});
    const struct {
      const char* label;
      std::unique_ptr<graph::ExecutorBackend> backend;
    } backends[] = {
        {"reference", graph::make_backend(BackendKind::kReference)},
        {"kernel", graph::make_backend(BackendKind::kKernel)},
        {"engine", graph::make_backend(BackendKind::kEngine)},
        {"engine-chunked", graph::make_engine_backend(session)},
    };
    for (const auto& entry : backends) {
      const std::uint64_t got =
          checksum(entry.backend->run(c.program, c.plan, c.config));
      if (print) {
        std::printf("    {\"%s\", \"%s\", 0x%016llXULL},\n", c.name.c_str(),
                    entry.label, static_cast<unsigned long long>(got));
        continue;
      }
      bool found = false;
      for (const GoldenEntry& golden : kGoldenCorpus) {
        if (c.name != golden.program ||
            std::string(entry.label) != golden.backend) {
          continue;
        }
        found = true;
        EXPECT_EQ(got, golden.checksum)
            << c.name << " on " << entry.label
            << ": bit-level results changed.  If every row moved together "
               "this is a seeding/derivation migration; see "
               "tests/golden/README.md before regenerating.";
      }
      EXPECT_TRUE(found) << "no golden entry for " << c.name << " on "
                         << entry.label;
    }
  }
  if (print) {
    std::printf("};\n");
    GTEST_SKIP() << "SC_GOLDEN_PRINT set: printed the corpus instead of "
                    "checking it";
  }
}

// ----------------------------------------------------------------- frames
//
// Pixels are hashed as the bit patterns of their doubles.  Output pixels
// are ones counts over n, exact anywhere the bits are; the reference
// pixels and the mean error are plain IEEE double arithmetic, which the
// build compiles without contraction (ISO mode, no -march).

void mix_image(Fnv1a& fnv, const img::Image& image) {
  fnv.mix(image.width());
  fnv.mix(image.height());
  for (const double p : image.pixels()) {
    fnv.mix(std::bit_cast<std::uint64_t>(p));
  }
}

std::uint64_t frame_checksum(const img::Image& output,
                             const img::Image& reference, double error) {
  Fnv1a fnv;
  mix_image(fnv, output);
  mix_image(fnv, reference);
  fnv.mix(std::bit_cast<std::uint64_t>(error));
  return fnv.hash;
}

std::uint64_t frame_checksum(const img::PipelineResult& result) {
  return frame_checksum(result.output, result.reference, result.error);
}

/// Two hand-built scenes (no <random> distribution, whose output is
/// implementation-defined): a hard-edged checkerboard, and an integer-hash
/// texture over the 17 levels k/16, zero and full scale included.
std::vector<std::pair<const char*, img::Image>> frame_scenes(
    std::size_t width, std::size_t height) {
  img::Image texture(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      texture.at(x, y) =
          static_cast<double>((x * 37 + y * 91 + x * y * 13) % 17) / 16.0;
    }
  }
  std::vector<std::pair<const char*, img::Image>> scenes;
  scenes.emplace_back("checker", img::Image::checkerboard(width, height, 3));
  scenes.emplace_back("texture", std::move(texture));
  return scenes;
}

/// §IV pipeline configs: widths 3..32, lengths around word boundaries
/// (0, 63, 257) and off them (100, 1000), tiles that do not divide the
/// image sides (partial edge tiles), and every bank count and sync depth
/// from 1 to 8 and 7.
struct PipelineCase {
  const char* name;
  std::size_t image_width;
  std::size_t image_height;
  std::size_t stream_length;
  std::size_t tile;
  unsigned sng_width;
  unsigned input_banks;
  unsigned sync_depth;
  std::uint32_t seed;
};

constexpr PipelineCase kPipelineCases[] = {
    // name            w   h     n  tile  sng banks depth seed
    {"w3-n63-t3", 11, 8, 63, 3, 3, 1, 1, 7},
    {"w3-n257-t7", 16, 10, 257, 7, 3, 8, 2, 5},
    {"w8-n0-t7", 15, 9, 0, 7, 8, 3, 3, 11},
    {"w8-n256-t10", 23, 17, 256, 10, 8, 8, 2, 7},
    {"w16-n100-t7", 22, 13, 100, 7, 16, 5, 4, 0x1234},
    {"w16-n1000-t3", 10, 7, 1000, 3, 16, 2, 7, 99},
    {"w31-n257-t10", 21, 12, 257, 10, 31, 6, 5, 0xBEEF},
    {"w32-n257-t1", 5, 4, 257, 1, 32, 4, 6, 3},
    {"w32-n1000-t10", 13, 11, 1000, 10, 32, 7, 1, 0xDEADBEEF},
};

/// Sobel and median configs at the widths whose frames were right at the
/// time of pinning (width 32 had its own fix and test).
struct FilterCase {
  const char* name;
  unsigned sng_width;
  std::size_t stream_length;
  unsigned input_banks;
  unsigned sync_depth;
  unsigned desync_depth;
  std::uint32_t seed;
};

constexpr FilterCase kFilterCases[] = {
    {"w3-n63", 3, 63, 1, 1, 2, 5},
    {"w8-n256", 8, 256, 8, 4, 4, 31},
    {"w16-n100", 16, 100, 3, 2, 5, 77},
    {"w31-n257", 31, 257, 5, 3, 1, 0xBEEF},
};

struct FrameChecksum {
  std::string program;  // "<config>/<scene>"
  std::string label;    // "<entry point>/<variant>"
  std::uint64_t checksum;
};

std::vector<FrameChecksum> frame_checksums() {
  const std::pair<img::Variant, const char*> variants[] = {
      {img::Variant::kNoManipulation, "none"},
      {img::Variant::kRegeneration, "regeneration"},
      {img::Variant::kSynchronizer, "synchronizer"},
  };
  engine::Session one({1});
  engine::Session four({4});
  std::vector<FrameChecksum> out;
  for (const PipelineCase& pc : kPipelineCases) {
    img::PipelineConfig config;
    config.stream_length = pc.stream_length;
    config.tile = pc.tile;
    config.sng_width = pc.sng_width;
    config.input_banks = pc.input_banks;
    config.sync_depth = pc.sync_depth;
    config.seed = pc.seed;
    for (const auto& [scene, image] :
         frame_scenes(pc.image_width, pc.image_height)) {
      const std::string program = std::string(pc.name) + "/" + scene;
      for (const auto& [variant, label] : variants) {
        out.push_back({program, std::string("serial/") + label,
                       frame_checksum(img::run_pipeline(image, variant,
                                                        config))});
        const std::uint64_t tiled = frame_checksum(
            img::run_pipeline_tiled(image, variant, config, one));
        EXPECT_EQ(tiled, frame_checksum(img::run_pipeline_tiled(
                             image, variant, config, four)))
            << program << " " << label
            << ": the tiled frame depends on the session's thread count";
        out.push_back({program, std::string("tiled/") + label, tiled});
      }
    }
  }
  for (const FilterCase& fc : kFilterCases) {
    img::SobelConfig sobel;
    sobel.stream_length = fc.stream_length;
    sobel.sng_width = fc.sng_width;
    sobel.input_banks = fc.input_banks;
    sobel.sync_depth = fc.sync_depth;
    sobel.desync_depth = fc.desync_depth;
    sobel.seed = fc.seed;
    img::MedianConfig median;
    median.stream_length = fc.stream_length;
    median.sng_width = fc.sng_width;
    median.input_banks = fc.input_banks;
    median.sync_depth = fc.sync_depth;
    median.seed = fc.seed;
    for (const auto& [scene, image] : frame_scenes(9, 7)) {
      const std::string program = std::string(fc.name) + "/" + scene;
      for (const bool manipulate : {true, false}) {
        sobel.manipulate = manipulate;
        const img::SobelResult r = img::run_sc_sobel(image, sobel);
        out.push_back({program, manipulate ? "sobel/manipulate" : "sobel/bare",
                       frame_checksum(r.output, r.reference, r.error)});
      }
      const img::Image filtered = img::sc_median_filter(image, median);
      const img::Image reference = img::median3x3(image);
      out.push_back({program, "median",
                     frame_checksum(filtered, reference,
                                    img::mean_abs_error(filtered, reference))});
    }
  }
  return out;
}

TEST(GoldenFrames, ImageFramesMatchTheCommittedChecksums) {
  const std::vector<FrameChecksum> frames = frame_checksums();
  if (std::getenv("SC_GOLDEN_PRINT") != nullptr) {
    std::printf("inline constexpr GoldenEntry kGoldenFrames[] = {\n");
    for (const FrameChecksum& f : frames) {
      std::printf("    {\"%s\", \"%s\", 0x%016llXULL},\n", f.program.c_str(),
                  f.label.c_str(), static_cast<unsigned long long>(f.checksum));
    }
    std::printf("};\n");
    GTEST_SKIP() << "SC_GOLDEN_PRINT set: printed the frames instead of "
                    "checking them";
  }
  EXPECT_EQ(frames.size(), std::size(kGoldenFrames));
  for (const FrameChecksum& f : frames) {
    const auto golden = std::find_if(
        std::begin(kGoldenFrames), std::end(kGoldenFrames),
        [&](const GoldenEntry& e) {
          return f.program == e.program && f.label == e.backend;
        });
    ASSERT_NE(golden, std::end(kGoldenFrames))
        << "no golden entry for " << f.program << " " << f.label;
    EXPECT_EQ(f.checksum, golden->checksum)
        << f.program << " " << f.label << ": frame pixels changed";
  }
}

// -------------------------------------------------------------- operators
//
// Operator outputs are hashed word for word (length first, like the
// corpus); forward_sc and resc_apply results as the bit patterns of their
// doubles.

void mix_stream(Fnv1a& fnv, const Bitstream& stream) {
  fnv.mix(stream.size());
  for (const Bitstream::Word word : stream.words()) fnv.mix(word);
}

/// Operand pairs: two streams of one VDC source (SCC = +1), the paper's
/// uncorrelated VDC / Halton-3 pair, and two LFSRs with distinct seeds.
sc::StreamPair operand_pair(const std::string& source, std::uint32_t lx,
                            std::uint32_t ly, std::size_t n) {
  if (source == "vdc") {
    return {test::vdc_stream(lx, n), test::vdc_stream(ly, n)};
  }
  if (source == "halton") {
    return {test::vdc_stream(lx, n), test::halton3_stream(ly, n)};
  }
  return {test::lfsr_stream(lx, 1, n), test::lfsr_stream(ly, 7, n)};
}

/// One Fig. 5 operator (or composition), run at save depth `depth` with
/// end-of-stream flush on or off, mixing its output into `fnv`.
using OperatorRun = std::function<void(Fnv1a&, const Bitstream&,
                                       const Bitstream&, unsigned, bool)>;

std::vector<std::pair<std::string, OperatorRun>> operator_runs() {
  std::vector<std::pair<std::string, OperatorRun>> runs = {
      {"sync_max",
       [](Fnv1a& fnv, const Bitstream& x, const Bitstream& y, unsigned depth,
          bool flush) {
         mix_stream(fnv, core::sync_max(x, y, {depth, flush}));
       }},
      {"sync_min",
       [](Fnv1a& fnv, const Bitstream& x, const Bitstream& y, unsigned depth,
          bool flush) {
         mix_stream(fnv, core::sync_min(x, y, {depth, flush}));
       }},
      {"desync_saturating_add",
       [](Fnv1a& fnv, const Bitstream& x, const Bitstream& y, unsigned depth,
          bool flush) {
         mix_stream(fnv, core::desync_saturating_add(x, y, {depth, flush}));
       }},
      {"sync_subtract",
       [](Fnv1a& fnv, const Bitstream& x, const Bitstream& y, unsigned depth,
          bool flush) {
         mix_stream(fnv, core::sync_subtract(x, y, {depth, flush}));
       }},
      {"sync_divide",
       [](Fnv1a& fnv, const Bitstream& x, const Bitstream& y, unsigned depth,
          bool flush) {
         mix_stream(fnv, core::sync_divide(x, y, {depth, flush}));
       }},
  };
  for (std::size_t stages = 1; stages <= 4; ++stages) {
    runs.emplace_back(
        "compose_synchronizers/" + std::to_string(stages),
        [stages](Fnv1a& fnv, const Bitstream& x, const Bitstream& y,
                 unsigned depth, bool flush) {
          const sc::StreamPair out =
              core::compose_synchronizers(x, y, stages, {depth, flush});
          mix_stream(fnv, out.x);
          mix_stream(fnv, out.y);
        });
    runs.emplace_back(
        "compose_desynchronizers/" + std::to_string(stages),
        [stages](Fnv1a& fnv, const Bitstream& x, const Bitstream& y,
                 unsigned depth, bool flush) {
          const sc::StreamPair out =
              core::compose_desynchronizers(x, y, stages, {depth, flush});
          mix_stream(fnv, out.x);
          mix_stream(fnv, out.y);
        });
  }
  return runs;
}

void mix_doubles(Fnv1a& fnv, const std::vector<double>& values) {
  fnv.mix(values.size());
  for (const double v : values) fnv.mix(std::bit_cast<std::uint64_t>(v));
}

std::vector<FrameChecksum> operator_checksums() {
  // Lengths around word boundaries and one RNG period (256 at width 8).
  const std::size_t lengths[] = {0, 1, 63, 64, 65, 256, 1000, 4097};
  const std::pair<std::uint32_t, std::uint32_t> levels[] = {
      {170, 90}, {40, 200}, {128, 128}};
  std::vector<FrameChecksum> out;
  for (const auto& [name, run] : operator_runs()) {
    for (const char* source : {"vdc", "halton", "lfsr"}) {
      Fnv1a fnv;
      for (const std::size_t n : lengths) {
        for (const auto& [lx, ly] : levels) {
          const sc::StreamPair in = operand_pair(source, lx, ly, n);
          for (unsigned depth = 1; depth <= 8; ++depth) {
            for (const bool flush : {false, true}) {
              run(fnv, in.x, in.y, depth, flush);
            }
          }
        }
      }
      out.push_back({name, source, fnv.hash});
    }
  }

  const unsigned widths[] = {3, 8, 16, 31};
  // forward_sc: the XOR network on its four inputs, and one fractional
  // layer.
  nn::Dense layer;
  layer.weights = {{0.5, -0.25, 0.8}, {-0.6, 0.1, 0.3}};
  layer.bias = {0.1, -0.2};
  layer.alpha = 2.0;
  const std::vector<double> layer_input = {0.3, -0.7, 0.9};
  const std::vector<nn::Dense> network = nn::xor_network();
  const std::pair<nn::RngStrategy, const char*> rng_strategies[] = {
      {nn::RngStrategy::kTwoRngs, "two-rngs"},
      {nn::RngStrategy::kSingleRng, "single-rng"},
      {nn::RngStrategy::kDecorrelated, "decorrelated"},
  };
  for (const auto& [strategy, label] : rng_strategies) {
    for (const unsigned width : widths) {
      nn::MlpConfig config;
      config.width = width;
      config.strategy = strategy;
      Fnv1a fnv;
      mix_doubles(fnv, nn::forward_sc(layer, layer_input, config));
      for (const double a : {-1.0, 1.0}) {
        for (const double b : {-1.0, 1.0}) {
          const std::vector<double> x = {a, b};
          mix_doubles(fnv, nn::forward_sc(network, x, config));
        }
      }
      out.push_back({std::string("forward_sc/") + label,
                     "w" + std::to_string(width), fnv.hash});
    }
  }

  // resc_apply: x^2 at a few points, degree 4.
  const std::pair<func::CopyStrategy, const char*> copy_strategies[] = {
      {func::CopyStrategy::kIndependentSources, "independent"},
      {func::CopyStrategy::kSharedSource, "shared"},
      {func::CopyStrategy::kDecorrelatorChain, "decorrelator-chain"},
  };
  const auto square = [](double t) { return t * t; };
  for (const auto& [strategy, label] : copy_strategies) {
    for (const unsigned width : widths) {
      func::RescConfig config;
      config.sng_width = width;
      config.strategy = strategy;
      std::vector<double> values;
      for (const double x : {0.0, 0.3, 0.5, 0.9}) {
        values.push_back(func::resc_apply(square, x, config));
      }
      Fnv1a fnv;
      mix_doubles(fnv, values);
      out.push_back({std::string("resc_apply/") + label,
                     "w" + std::to_string(width), fnv.hash});
    }
  }
  return out;
}

TEST(GoldenOperators, LibraryCallersMatchTheCommittedChecksums) {
  const std::vector<FrameChecksum> sums = operator_checksums();
  if (std::getenv("SC_GOLDEN_PRINT") != nullptr) {
    std::printf("inline constexpr GoldenEntry kGoldenOperators[] = {\n");
    for (const FrameChecksum& f : sums) {
      std::printf("    {\"%s\", \"%s\", 0x%016llXULL},\n", f.program.c_str(),
                  f.label.c_str(), static_cast<unsigned long long>(f.checksum));
    }
    std::printf("};\n");
    GTEST_SKIP() << "SC_GOLDEN_PRINT set: printed the operators instead of "
                    "checking them";
  }
  EXPECT_EQ(sums.size(), std::size(kGoldenOperators));
  for (const FrameChecksum& f : sums) {
    const auto golden = std::find_if(
        std::begin(kGoldenOperators), std::end(kGoldenOperators),
        [&](const GoldenEntry& e) {
          return f.program == e.program && f.label == e.backend;
        });
    ASSERT_NE(golden, std::end(kGoldenOperators))
        << "no golden entry for " << f.program << " " << f.label;
    EXPECT_EQ(f.checksum, golden->checksum)
        << f.program << " " << f.label << ": results changed";
  }
}

// Telemetry neutrality at golden granularity: the full corpus — faults,
// regeneration, the optimizer rewrite — re-run with tracing, metrics, and
// a stream-health probe attached must reproduce the exact checksums of
// the bare runs on every backend.  Observation may never move a bit.
TEST(GoldenCorpus, TelemetryEnabledRunsKeepIdenticalChecksums) {
  for (const Case& c : corpus_cases()) {
    obs::Telemetry telemetry;  // tracing on, in-memory
    telemetry.add_probe({"x", "out", 128});

    engine::Session bare_session({1, /*chunk_bits=*/128, 0x5eed});
    engine::Session traced_session(
        {1, /*chunk_bits=*/128, 0x5eed, &telemetry});
    const struct {
      const char* label;
      std::unique_ptr<graph::ExecutorBackend> bare;
      std::unique_ptr<graph::ExecutorBackend> traced;
    } backends[] = {
        {"reference", graph::make_backend(BackendKind::kReference),
         graph::make_backend(BackendKind::kReference)},
        {"kernel", graph::make_backend(BackendKind::kKernel),
         graph::make_backend(BackendKind::kKernel)},
        {"engine-chunked", graph::make_engine_backend(bare_session),
         graph::make_engine_backend(traced_session)},
    };
    for (const auto& entry : backends) {
      ExecConfig with = c.config;
      with.telemetry = &telemetry;
      const std::uint64_t bare =
          checksum(entry.bare->run(c.program, c.plan, c.config));
      const std::uint64_t traced =
          checksum(entry.traced->run(c.program, c.plan, with));
      EXPECT_EQ(bare, traced)
          << c.name << " on " << entry.label
          << ": attaching telemetry changed bit-level results";
    }
    // The observed runs actually observed something.
    EXPECT_NE(telemetry.snapshot().counters.count("backend.runs"), 0u);
  }
}

// Always-on profiling at golden granularity: a deliberately tiny trace
// ring (64 events — the corpus overflows it, exercising overwrite-oldest
// on every run) with the call-tree profiler aggregating after each run
// must also reproduce the exact bare checksums.  Dropping trace events
// may never drop bits.
TEST(GoldenCorpus, ProfiledRunsWithTinyRingKeepIdenticalChecksums) {
  for (const Case& c : corpus_cases()) {
    obs::TelemetryConfig tconfig;
    tconfig.trace_capacity = 64;
    obs::Telemetry telemetry(tconfig);

    engine::Session bare_session({1, /*chunk_bits=*/128, 0x5eed});
    engine::Session profiled_session(
        {1, /*chunk_bits=*/128, 0x5eed, &telemetry});
    const struct {
      const char* label;
      std::unique_ptr<graph::ExecutorBackend> bare;
      std::unique_ptr<graph::ExecutorBackend> profiled;
    } backends[] = {
        {"reference", graph::make_backend(BackendKind::kReference),
         graph::make_backend(BackendKind::kReference)},
        {"kernel", graph::make_backend(BackendKind::kKernel),
         graph::make_backend(BackendKind::kKernel)},
        {"engine-chunked", graph::make_engine_backend(bare_session),
         graph::make_engine_backend(profiled_session)},
    };
    for (const auto& entry : backends) {
      ExecConfig with = c.config;
      with.telemetry = &telemetry;
      const std::uint64_t bare =
          checksum(entry.bare->run(c.program, c.plan, c.config));
      const std::uint64_t profiled =
          checksum(entry.profiled->run(c.program, c.plan, with));
      EXPECT_EQ(bare, profiled)
          << c.name << " on " << entry.label
          << ": profiling with a saturated ring changed bit-level results";
      // Aggregate after every run, the way an always-on profiler would.
      const obs::Profile profile = obs::build_profile(*telemetry.tracer());
      EXPECT_LE(profile.span_count, 64u);
      EXPECT_FALSE(profile.to_collapsed().empty());
    }
  }
}

// Machine-output stability: sc_lint's --json is a CI contract
// (validate_lint.py --expect pins per-file diagnostic-id sets), so the
// JSON an analysis produces must be byte-identical across runs — no
// map-iteration, float-formatting, or diagnostic-ordering drift.  One
// program per accuracy diagnostic id, each analyzed twice from scratch
// exactly the way tools/sc_lint.cpp does.
TEST(GoldenCorpus, AccuracyDiagnosticJsonIsByteStable) {
  struct LintCase {
    const char* name;
    bool optimize;
    double target_rmse;
    const char* expect_id;
  };
  const LintCase lint_cases[] = {
      {"precision-stanh", false, 0.0, "precision-loss"},
      {"saturation-or", false, 0.0, "saturation-risk"},
      {"corrbias-xor", false, 0.0, "correlation-bias"},
      {"shortstream-mul", false, 0.05, "insufficient-stream-length"},
      {"chain-unrec", true, 0.0, "chain-unrecoverable"},
  };
  std::vector<Case> cases = corpus_cases();
  for (const LintCase& lc : lint_cases) {
    const auto it =
        std::find_if(cases.begin(), cases.end(),
                     [&](const Case& c) { return c.name == lc.name; });
    ASSERT_NE(it, cases.end()) << lc.name;
    analysis::AnalyzerConfig config;
    config.stream_length = 256;  // sc_lint's default operating point
    config.target_rmse = lc.target_rmse;
    const auto lint_json = [&]() {
      if (!lc.optimize) {
        return analysis::analyze(it->program, it->plan, config)
            .to_json(lc.name);
      }
      opt::OptConfig opt_config;
      opt_config.dead_fix_elimination = true;
      const opt::OptResult optimized =
          opt::optimize(it->program, it->plan, opt_config);
      return analysis::analyze(optimized.program, optimized.plan, config)
          .to_json(lc.name);
    };
    const std::string first = lint_json();
    const std::string second = lint_json();
    EXPECT_EQ(first, second)
        << lc.name << ": analysis JSON changed between two identical runs";
    EXPECT_NE(first.find(std::string("\"id\": \"") + lc.expect_id + "\""),
              std::string::npos)
        << lc.name << " must emit " << lc.expect_id << "; got:\n"
        << first;
  }
}

}  // namespace
}  // namespace sc::golden
