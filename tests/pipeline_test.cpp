/// Integration tests for the §IV SC image pipeline: accuracy ordering,
/// hardware cost ordering, and the paper's headline Table IV relationships.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "engine/session.hpp"
#include "hw/cost.hpp"
#include "hw/designs.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"

namespace sc::img {
namespace {

PipelineConfig small_config() {
  PipelineConfig config;
  config.stream_length = 256;
  config.tile = 10;
  return config;
}

const Image& test_scene() {
  static const Image scene = Image::synthetic_scene(20, 20, 11);
  return scene;
}

TEST(Pipeline, OutputDimensionsMatchInput) {
  const auto result =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  EXPECT_EQ(result.output.width(), 20u);
  EXPECT_EQ(result.output.height(), 20u);
  EXPECT_EQ(result.reference.width(), 20u);
}

TEST(Pipeline, TileCountComputed) {
  const auto result =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  EXPECT_EQ(result.cost.tiles, 4u);  // 20x20 image, 10x10 tiles
}

TEST(Pipeline, NonMultipleImageSizeIsHandled) {
  const Image odd = Image::synthetic_scene(23, 17, 3);
  const auto result =
      run_pipeline(odd, Variant::kSynchronizer, small_config());
  EXPECT_EQ(result.output.width(), 23u);
  EXPECT_EQ(result.output.height(), 17u);
  EXPECT_EQ(result.cost.tiles, 6u);  // 3 x 2 tiles
  EXPECT_LT(result.error, 0.2);
}

TEST(Pipeline, AccuracyOrderingMatchesTableIV) {
  // Paper Table IV: no-manipulation 0.076 >> regeneration 0.019 ~
  // synchronizer 0.020.
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());

  EXPECT_GT(none.error, 1.5 * regen.error);
  EXPECT_GT(none.error, 1.5 * sync.error);
  // Regeneration and synchronizer are the same accuracy class.
  EXPECT_NEAR(regen.error, sync.error, 0.02);
}

TEST(Pipeline, ErrorMagnitudesInPaperRange) {
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_GT(none.error, 0.02);
  EXPECT_LT(none.error, 0.25);
  EXPECT_LT(sync.error, 0.06);
}

TEST(Pipeline, AreaOrderingMatchesTableIV) {
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_LT(none.cost.report.area_um2, sync.cost.report.area_um2);
  EXPECT_LT(none.cost.report.area_um2, regen.cost.report.area_um2);
  // Both manipulating designs stay within ~2x of the base accelerator.
  EXPECT_LT(regen.cost.report.area_um2, 2.5 * none.cost.report.area_um2);
  EXPECT_LT(sync.cost.report.area_um2, 2.0 * none.cost.report.area_um2);
}

TEST(Pipeline, EnergyOrderingMatchesTableIV) {
  // Paper: regeneration 1971 > synchronizer 1505 > none 1383 nJ/frame.
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_GT(regen.cost.energy_nj_frame, sync.cost.energy_nj_frame);
  EXPECT_GT(sync.cost.energy_nj_frame, none.cost.energy_nj_frame);
}

TEST(Pipeline, SynchronizerSavesTotalEnergyVersusRegeneration) {
  // Paper: 24% lower total energy.  Accept anything meaningfully > 10%.
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  const double saving =
      1.0 - sync.cost.energy_nj_frame / regen.cost.energy_nj_frame;
  EXPECT_GT(saving, 0.10);
  EXPECT_LT(saving, 0.60);
}

TEST(Pipeline, ManipulationOverheadRatioNearPaperThreeX) {
  // Paper §IV-B: synchronizer-based manipulation is 3.0x more energy
  // efficient than regeneration-based manipulation.
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  const double ratio =
      regen.cost.overhead_energy_nj / sync.cost.overhead_energy_nj;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(Pipeline, SynchronizerUsesTwiceTheManipulatorUnits) {
  // Paper: "2x more synchronizers than the number of S/D and D/S
  // converters used by regeneration" (200 vs 121 units per tile here).
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_EQ(sync.cost.manipulator_units, 200u);
  EXPECT_EQ(regen.cost.manipulator_units, 121u);
  EXPECT_GT(static_cast<double>(sync.cost.manipulator_units) /
                regen.cost.manipulator_units,
            1.5);
}

TEST(Pipeline, NoManipulationHasZeroOverhead) {
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  EXPECT_DOUBLE_EQ(none.cost.overhead_energy_nj, 0.0);
  EXPECT_EQ(none.cost.manipulator_units, 0u);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto a =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  const auto b =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_DOUBLE_EQ(mean_abs_error(a.output, b.output), 0.0);
}

TEST(Pipeline, LongerStreamsImproveAccuracy) {
  PipelineConfig short_cfg = small_config();
  short_cfg.stream_length = 64;
  PipelineConfig long_cfg = small_config();
  long_cfg.stream_length = 1024;
  const auto coarse =
      run_pipeline(test_scene(), Variant::kSynchronizer, short_cfg);
  const auto fine =
      run_pipeline(test_scene(), Variant::kSynchronizer, long_cfg);
  EXPECT_LT(fine.error, coarse.error + 0.01);
}

TEST(Pipeline, NetlistLabelsAreDescriptive) {
  EXPECT_EQ(to_string(Variant::kNoManipulation), "SC no-manipulation");
  EXPECT_EQ(to_string(Variant::kRegeneration), "SC regeneration");
  EXPECT_EQ(to_string(Variant::kSynchronizer), "SC synchronizer");
}

TEST(Pipeline, BaseNetlistMatchesStructure) {
  const hw::Netlist base = pipeline_base_netlist(small_config());
  // 100 output S/D counters at 8 bits each contribute 800 plain DFFs.
  EXPECT_GE(base.count(hw::Cell::kDff), 800u);
  // 169 input registers at 8 bits each are enable-flops.
  EXPECT_EQ(base.count(hw::Cell::kDffEn), 169u * 8u);
}

TEST(Pipeline, OverheadNetlistsMatchUnitCounts) {
  const PipelineConfig config = small_config();
  const hw::Netlist sync_overhead =
      pipeline_overhead_netlist(Variant::kSynchronizer, config);
  // 200 synchronizers with state_bits(2D+1) flops each.
  const unsigned bits_per_fsm = hw::state_bits(2 * config.sync_depth + 1);
  EXPECT_EQ(sync_overhead.count(hw::Cell::kDff), 200u * bits_per_fsm);
  const hw::Netlist regen_overhead =
      pipeline_overhead_netlist(Variant::kRegeneration, config);
  // 121 regenerators (16 flops each: counter + hold) + shared 8-bit LFSR.
  EXPECT_EQ(regen_overhead.count(hw::Cell::kDff), 121u * 16u + 8u);
}

TEST(Pipeline, InvalidConfigsThrowFromBothEntryPoints) {
  engine::Session session({1});
  PipelineConfig no_tile = small_config();
  no_tile.tile = 0;
  PipelineConfig no_banks = small_config();
  no_banks.input_banks = 0;
  for (const Variant variant : {Variant::kNoManipulation,
                                Variant::kRegeneration,
                                Variant::kSynchronizer}) {
    EXPECT_THROW(run_pipeline(test_scene(), variant, no_tile),
                 std::invalid_argument);
    EXPECT_THROW(run_pipeline_tiled(test_scene(), variant, no_tile, session),
                 std::invalid_argument);
    EXPECT_THROW(run_pipeline(test_scene(), variant, no_banks),
                 std::invalid_argument);
    EXPECT_THROW(run_pipeline_tiled(test_scene(), variant, no_banks, session),
                 std::invalid_argument);
    EXPECT_THROW(run_pipeline(Image(), variant, small_config()),
                 std::invalid_argument);
    EXPECT_THROW(run_pipeline_tiled(Image(), variant, small_config(), session),
                 std::invalid_argument);
  }
}

TEST(Pipeline, SyncDepthZeroThrowsOnlyWhereSynchronizersRun) {
  // The other variants build no synchronizer, so they never see the depth.
  engine::Session session({1});
  PipelineConfig config = small_config();
  config.sync_depth = 0;
  EXPECT_THROW(run_pipeline(test_scene(), Variant::kSynchronizer, config),
               std::invalid_argument);
  EXPECT_THROW(run_pipeline_tiled(test_scene(), Variant::kSynchronizer, config,
                                  session),
               std::invalid_argument);
  for (const Variant variant :
       {Variant::kNoManipulation, Variant::kRegeneration}) {
    EXPECT_NO_THROW(run_pipeline(test_scene(), variant, config));
    EXPECT_NO_THROW(run_pipeline_tiled(test_scene(), variant, config, session));
  }
}

TEST(Pipeline, FullWidthGeneratorsProduceAFrame) {
  // At sng_width 32 the natural length is 2^32: a level computed in 32
  // bits wraps to 0, and every frame comes out blank.
  const Image input = Image::checkerboard(40, 40, 8);
  PipelineConfig config = small_config();
  config.sng_width = 32;
  engine::Session session({1});
  const auto mean = [](const Image& image) {
    const std::vector<double>& px = image.pixels();
    return std::accumulate(px.begin(), px.end(), 0.0) /
           static_cast<double>(px.size());
  };
  for (const Variant variant : {Variant::kNoManipulation,
                                Variant::kRegeneration,
                                Variant::kSynchronizer}) {
    const auto serial = run_pipeline(input, variant, config);
    const auto tiled = run_pipeline_tiled(input, variant, config, session);
    const double want = mean(serial.reference);
    EXPECT_GT(mean(serial.output), 0.5 * want) << to_string(variant);
    EXPECT_GT(mean(tiled.output), 0.5 * want) << to_string(variant);
  }
}

}  // namespace
}  // namespace sc::img
