/// Tests for the hardware cost model: netlist algebra, cost evaluation
/// units, structural scaling with design parameters, and the calibrated
/// relative factors the paper reports (Table III ratios, converter
/// overhead orders of magnitude).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/cells.hpp"
#include "hw/cost.hpp"
#include "hw/designs.hpp"
#include "hw/netlist.hpp"

namespace sc::hw {
namespace {

TEST(Cells, LibraryLookupIsConsistent) {
  for (std::size_t i = 0; i < kCellCount; ++i) {
    const CellParams& p = cell_params(static_cast<Cell>(i));
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.area_um2, 0.0);
    EXPECT_GT(p.switch_energy_fj, 0.0);
    EXPECT_GE(p.leakage_uw, 0.0);
  }
}

TEST(Cells, FlipFlopsAreClocked) {
  EXPECT_TRUE(is_clocked(Cell::kDff));
  EXPECT_TRUE(is_clocked(Cell::kDffEn));
  EXPECT_FALSE(is_clocked(Cell::kOr2));
  EXPECT_FALSE(is_clocked(Cell::kFullAdder));
}

TEST(Netlist, AddAndCount) {
  Netlist n("test");
  n.add(Cell::kOr2).add(Cell::kDff, 3);
  EXPECT_EQ(n.count(Cell::kOr2), 1u);
  EXPECT_EQ(n.count(Cell::kDff), 3u);
  EXPECT_EQ(n.count(Cell::kInv), 0u);
  EXPECT_EQ(n.total_cells(), 4u);
}

TEST(Netlist, AdditionMergesCounts) {
  Netlist a;
  a.add(Cell::kAnd2, 2);
  Netlist b;
  b.add(Cell::kAnd2, 3).add(Cell::kDff, 1);
  const Netlist c = a + b;
  EXPECT_EQ(c.count(Cell::kAnd2), 5u);
  EXPECT_EQ(c.count(Cell::kDff), 1u);
}

TEST(Netlist, ScalingMultipliesCounts) {
  Netlist n;
  n.add(Cell::kXor2, 2);
  const Netlist scaled = n * 50;
  EXPECT_EQ(scaled.count(Cell::kXor2), 100u);
}

TEST(Netlist, AreaSumsCellAreas) {
  Netlist n;
  n.add(Cell::kOr2, 2);
  EXPECT_DOUBLE_EQ(n.area_um2(), 2.0 * cell_params(Cell::kOr2).area_um2);
}

TEST(Netlist, ToStringListsCells) {
  Netlist n("thing");
  n.add(Cell::kDff, 2).add(Cell::kOr2, 1);
  const std::string s = n.to_string();
  EXPECT_NE(s.find("thing"), std::string::npos);
  EXPECT_NE(s.find("2xDFF"), std::string::npos);
  EXPECT_NE(s.find("1xOR2"), std::string::npos);
}

TEST(Cost, EnergyEqualsPowerTimesTime) {
  const Netlist n = or_gate_netlist();
  CostConfig config;
  config.clock_hz = 100e6;
  config.cycles = 65536;
  const CostReport r = evaluate(n, config);
  const double seconds = 65536.0 / 100e6;
  EXPECT_NEAR(r.energy_pj, r.power_uw * seconds * 1e6, 1e-9);
  EXPECT_DOUBLE_EQ(r.power_uw, r.leakage_uw + r.dynamic_uw);
}

TEST(Cost, DynamicPowerScalesWithClock) {
  const Netlist n = sync_max_netlist(1);
  CostConfig slow, fast;
  slow.clock_hz = 50e6;
  fast.clock_hz = 200e6;
  EXPECT_NEAR(evaluate(n, fast).dynamic_uw,
              4.0 * evaluate(n, slow).dynamic_uw, 1e-9);
}

TEST(Cost, ActivityScalesCombinationalOnly) {
  Netlist comb;
  comb.add(Cell::kOr2, 10);
  Netlist seq;
  seq.add(Cell::kDff, 10);
  CostConfig low, high;
  low.activity = 0.1;
  high.activity = 0.9;
  EXPECT_LT(evaluate(comb, low).dynamic_uw, evaluate(comb, high).dynamic_uw);
  EXPECT_DOUBLE_EQ(evaluate(seq, low).dynamic_uw,
                   evaluate(seq, high).dynamic_uw);
}

TEST(Cost, ZeroCyclesZeroEnergy) {
  CostConfig config;
  config.cycles = 0;
  EXPECT_DOUBLE_EQ(evaluate(or_gate_netlist(), config).energy_pj, 0.0);
}

// --- design netlists -------------------------------------------------------------

TEST(Designs, StateBitsFormula) {
  EXPECT_EQ(state_bits(1), 1u);
  EXPECT_EQ(state_bits(2), 1u);
  EXPECT_EQ(state_bits(3), 2u);
  EXPECT_EQ(state_bits(4), 2u);
  EXPECT_EQ(state_bits(5), 3u);
  EXPECT_EQ(state_bits(9), 4u);
}

// A zero state count or depth describes no circuit.  Guarded by an assert
// alone, a Release build prices sync(D=0) at 28.08 um2 and shuffle(D=0)
// at 0.72 um2.

TEST(Designs, StateBitsOfNoStatesThrows) {
  EXPECT_THROW(state_bits(0), std::invalid_argument);
}

TEST(Designs, SynchronizerOfDepthZeroThrows) {
  EXPECT_THROW(synchronizer_netlist(0), std::invalid_argument);
  EXPECT_THROW(synchronizer_netlist(0, true), std::invalid_argument);
}

TEST(Designs, DesynchronizerOfDepthZeroThrows) {
  EXPECT_THROW(desynchronizer_netlist(0), std::invalid_argument);
  EXPECT_THROW(desynchronizer_netlist(0, true), std::invalid_argument);
}

TEST(Designs, ShuffleBufferOfDepthZeroThrows) {
  EXPECT_THROW(shuffle_buffer_netlist(0), std::invalid_argument);
}

TEST(Designs, DecorrelatorOfDepthZeroThrows) {
  EXPECT_THROW(decorrelator_netlist(0), std::invalid_argument);
}

TEST(Designs, OrMaxIsExactlyOneOrGate) {
  // Table III pins OR-max at the area of one OR2 cell (2.16 um^2).
  const Netlist n = or_gate_netlist();
  EXPECT_EQ(n.total_cells(), 1u);
  EXPECT_NEAR(n.area_um2(), 2.16, 1e-9);
}

TEST(Designs, SynchronizerAreaGrowsWithDepth) {
  double prev = 0.0;
  for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
    const double area = synchronizer_netlist(depth).area_um2();
    EXPECT_GT(area, prev);
    prev = area;
  }
}

TEST(Designs, DesynchronizerSlightlyLargerThanSynchronizer) {
  EXPECT_GT(desynchronizer_netlist(1).area_um2(),
            synchronizer_netlist(1).area_um2());
}

TEST(Designs, FlushTrackerAddsSubstantialHardware) {
  // Paper §III-B: flush "can become tremendously expensive".
  const double plain = synchronizer_netlist(4, false).area_um2();
  const double flush = synchronizer_netlist(4, true, 8).area_um2();
  EXPECT_GT(flush, 1.5 * plain);
}

TEST(Designs, SyncMaxVsCaMaxMatchesPaperAreaRatio) {
  // Paper Table III: CA-max is 5.2x larger than sync-max.
  const double sync = sync_max_netlist(1).area_um2();
  const double ca = ca_max_netlist().area_um2();
  EXPECT_NEAR(ca / sync, 5.2, 1.5);
}

TEST(Designs, SyncMaxEnergyVsCaMaxSameDirectionAsPaper) {
  // Paper: 11.6x more energy for CA-max; structural model lands the same
  // direction with at least ~4x.
  const CostReport sync = evaluate(sync_max_netlist(1));
  const CostReport ca = evaluate(ca_max_netlist());
  EXPECT_GT(ca.energy_pj / sync.energy_pj, 4.0);
}

TEST(Designs, SyncMaxNearPaperAbsoluteArea) {
  // Paper: 48.6 um^2/op for the D = 1 synchronizer maximum.
  EXPECT_NEAR(sync_max_netlist(1).area_um2(), 48.6, 10.0);
}

TEST(Designs, OrMaxPowerNearPaperCalibration) {
  // Paper: 0.26 uW at the Table III operating point.
  const CostReport r = evaluate(or_gate_netlist());
  EXPECT_NEAR(r.power_uw, 0.26, 0.08);
}

TEST(Designs, ToggleAdderCostVsMuxAdderMatchesPaperClaims) {
  // Paper §II-B: the CA adder is 5.6x larger and 10.7x more power than the
  // MUX adder; the structural model should land within a factor ~2.
  const CostReport mux = evaluate(mux_adder_netlist());
  const CostReport toggle = evaluate(toggle_adder_netlist());
  EXPECT_GT(toggle.area_um2 / mux.area_um2, 3.0);
  EXPECT_LT(toggle.area_um2 / mux.area_um2, 10.0);
  EXPECT_GT(toggle.power_uw / mux.power_uw, 4.0);
}

TEST(Designs, RegeneratorOrdersOfMagnitudeAboveGates) {
  // Paper §II-B: converters are one to two orders of magnitude more
  // costly than SC arithmetic circuits.
  const CostReport regen = evaluate(regenerator_netlist(8));
  const CostReport gate = evaluate(or_gate_netlist());
  EXPECT_GT(regen.area_um2 / gate.area_um2, 30.0);
  EXPECT_LT(regen.area_um2 / gate.area_um2, 300.0);
  EXPECT_GT(regen.power_uw / gate.power_uw, 10.0);
}

TEST(Designs, RegeneratorSeveralTimesCostlierThanSynchronizer) {
  // The pivotal comparison behind the paper's 3x overhead claim.
  const CostReport regen = evaluate(regenerator_netlist(8));
  const CostReport sync = evaluate(synchronizer_netlist(1));
  EXPECT_GT(regen.power_uw / sync.power_uw, 3.0);
}

TEST(Designs, ShuffleBufferScalesWithDepth) {
  EXPECT_GT(shuffle_buffer_netlist(8).area_um2(),
            shuffle_buffer_netlist(4).area_um2());
  const Netlist d4 = shuffle_buffer_netlist(4);
  EXPECT_EQ(d4.count(Cell::kDffEn), 4u);
}

TEST(Designs, DecorrelatorIsTwoShuffleBuffers) {
  EXPECT_NEAR(decorrelator_netlist(4).area_um2(),
              2.0 * shuffle_buffer_netlist(4).area_um2(), 1e-9);
}

TEST(Designs, TfmLargerThanDecorrelator) {
  // Paper §V: TFMs are larger because they carry binary arithmetic.
  EXPECT_GT(tfm_netlist(8).area_um2(), decorrelator_netlist(4).area_um2());
}

TEST(Designs, IsolatorIsJustFlipFlops) {
  const Netlist n = isolator_netlist(3);
  EXPECT_EQ(n.count(Cell::kDff), 3u);
  EXPECT_EQ(n.total_cells(), 3u);
}

TEST(Designs, SngRngDominatesComparator) {
  const double with_rng = sng_netlist(8, true).area_um2();
  const double shared = sng_netlist(8, false).area_um2();
  EXPECT_GT(with_rng, 2.0 * shared);
}

TEST(Designs, SdConverterScalesWithWidth) {
  EXPECT_GT(sd_converter_netlist(16).area_um2(),
            sd_converter_netlist(8).area_um2());
}

// Every builder's to_string(), label and cell counts, at two parameters
// each, with flush on and off and both RNG variants, pinned as text so a
// change to how the labels are built cannot move a byte.
// SC_GOLDEN_PRINT=1 ./hw_test prints the replacement for kDesignStrings.

#define SC_DESIGN(call) {#call, call}

std::vector<std::pair<std::string, Netlist>> design_netlists() {
  return {
      SC_DESIGN(or_gate_netlist()),
      SC_DESIGN(and_gate_netlist()),
      SC_DESIGN(xor_gate_netlist()),
      SC_DESIGN(xnor_gate_netlist()),
      SC_DESIGN(mux_adder_netlist()),
      SC_DESIGN(toggle_adder_netlist()),
      SC_DESIGN(cordiv_netlist()),
      SC_DESIGN(synchronizer_netlist(1)),
      SC_DESIGN(synchronizer_netlist(1, true)),
      SC_DESIGN(synchronizer_netlist(12, false, 5)),
      SC_DESIGN(synchronizer_netlist(12, true, 5)),
      SC_DESIGN(desynchronizer_netlist(1)),
      SC_DESIGN(desynchronizer_netlist(1, true)),
      SC_DESIGN(desynchronizer_netlist(12, false, 5)),
      SC_DESIGN(desynchronizer_netlist(12, true, 5)),
      SC_DESIGN(shuffle_buffer_netlist(1)),
      SC_DESIGN(shuffle_buffer_netlist(24)),
      SC_DESIGN(decorrelator_netlist(1)),
      SC_DESIGN(decorrelator_netlist(8)),
      SC_DESIGN(isolator_netlist(1)),
      SC_DESIGN(isolator_netlist(16)),
      SC_DESIGN(tfm_netlist(4)),
      SC_DESIGN(tfm_netlist(10)),
      SC_DESIGN(lfsr_netlist(8)),
      SC_DESIGN(lfsr_netlist(12)),
      SC_DESIGN(comparator_netlist(8)),
      SC_DESIGN(comparator_netlist(16)),
      SC_DESIGN(sng_netlist(8)),
      SC_DESIGN(sng_netlist(8, false)),
      SC_DESIGN(sng_netlist(16)),
      SC_DESIGN(sng_netlist(16, false)),
      SC_DESIGN(sd_converter_netlist(8)),
      SC_DESIGN(sd_converter_netlist(16)),
      SC_DESIGN(regenerator_netlist(8)),
      SC_DESIGN(regenerator_netlist(8, true)),
      SC_DESIGN(regenerator_netlist(12)),
      SC_DESIGN(regenerator_netlist(12, true)),
      SC_DESIGN(sync_max_netlist()),
      SC_DESIGN(sync_max_netlist(4)),
      SC_DESIGN(sync_min_netlist()),
      SC_DESIGN(sync_min_netlist(4)),
      SC_DESIGN(desync_sat_add_netlist()),
      SC_DESIGN(desync_sat_add_netlist(4)),
      SC_DESIGN(ca_max_netlist()),
      SC_DESIGN(ca_max_netlist(8)),
      SC_DESIGN(fsm_unit_netlist(8)),
      SC_DESIGN(fsm_unit_netlist(33)),
      SC_DESIGN(mux_tree_netlist(4, 8)),
      SC_DESIGN(mux_tree_netlist(9, 12)),
      SC_DESIGN(roberts_cross_netlist()),
      SC_DESIGN(resc_netlist(3, 8)),
      SC_DESIGN(resc_netlist(5, 10)),
  };
}

#undef SC_DESIGN

constexpr const char* kDesignStrings[][2] = {
    {"or_gate_netlist()",
     "or: 1xOR2"},
    {"and_gate_netlist()",
     "and: 1xAND2"},
    {"xor_gate_netlist()",
     "xor: 1xXOR2"},
    {"xnor_gate_netlist()",
     "xnor: 1xXNOR2"},
    {"mux_adder_netlist()",
     "mux-add: 1xMUX2"},
    {"toggle_adder_netlist()",
     "toggle-add: 1xINV 1xXOR2 1xMUX2 1xDFF"},
    {"cordiv_netlist()",
     "cordiv: 1xAND2 1xMUX2 1xDFF"},
    {"synchronizer_netlist(1)",
     "sync(D=1): 3xINV 4xNAND2 4xAND2 3xOR2 1xXOR2 2xDFF"},
    {"synchronizer_netlist(1, true)",
     "sync(D=1,flush): 3xINV 12xNAND2 4xAND2 8xOR2 1xXOR2 10xDFF 8xHADD"},
    {"synchronizer_netlist(12, false, 5)",
     "sync(D=12): 6xINV 10xNAND2 7xAND2 6xOR2 1xXOR2 5xDFF"},
    {"synchronizer_netlist(12, true, 5)",
     "sync(D=12,flush): 6xINV 15xNAND2 7xAND2 9xOR2 1xXOR2 10xDFF 5xHADD"},
    {"desynchronizer_netlist(1)",
     "desync(D=1): 3xINV 7xNAND2 4xAND2 3xOR2 1xXOR2 2xDFF"},
    {"desynchronizer_netlist(1, true)",
     "desync(D=1,flush): 3xINV 15xNAND2 4xAND2 8xOR2 1xXOR2 10xDFF 8xHADD"},
    {"desynchronizer_netlist(12, false, 5)",
     "desync(D=12): 6xINV 13xNAND2 7xAND2 6xOR2 1xXOR2 5xDFF"},
    {"desynchronizer_netlist(12, true, 5)",
     "desync(D=12,flush): 6xINV 18xNAND2 7xAND2 9xOR2 1xXOR2 10xDFF 5xHADD"},
    {"shuffle_buffer_netlist(1)",
     "shuffle(D=1): 1xINV 1xAND2 1xMUX2 1xDFFE"},
    {"shuffle_buffer_netlist(24)",
     "shuffle(D=24): 5xINV 24xAND2 24xMUX2 24xDFFE"},
    {"decorrelator_netlist(1)",
     "decorrelator(D=1): 2xINV 2xAND2 2xMUX2 2xDFFE"},
    {"decorrelator_netlist(8)",
     "decorrelator(D=8): 8xINV 16xAND2 16xMUX2 16xDFFE"},
    {"isolator_netlist(1)",
     "isolator(d=1): 1xDFF"},
    {"isolator_netlist(16)",
     "isolator(d=16): 16xDFF"},
    {"tfm_netlist(4)",
     "tfm(k=4): 4xAND2 4xXNOR2 5xDFF 4xFADD"},
    {"tfm_netlist(10)",
     "tfm(k=10): 10xAND2 10xXNOR2 11xDFF 10xFADD"},
    {"lfsr_netlist(8)",
     "lfsr8: 3xXOR2 8xDFF"},
    {"lfsr_netlist(12)",
     "lfsr12: 3xXOR2 12xDFF"},
    {"comparator_netlist(8)",
     "cmp8: 8xAND2 8xXNOR2"},
    {"comparator_netlist(16)",
     "cmp16: 16xAND2 16xXNOR2"},
    {"sng_netlist(8)",
     "sng8: 8xAND2 3xXOR2 8xXNOR2 8xDFF"},
    {"sng_netlist(8, false)",
     "sng8(shared-rng): 8xAND2 8xXNOR2"},
    {"sng_netlist(16)",
     "sng16: 16xAND2 3xXOR2 16xXNOR2 16xDFF"},
    {"sng_netlist(16, false)",
     "sng16(shared-rng): 16xAND2 16xXNOR2"},
    {"sd_converter_netlist(8)",
     "sd8: 8xDFF 8xHADD"},
    {"sd_converter_netlist(16)",
     "sd16: 16xDFF 16xHADD"},
    {"regenerator_netlist(8)",
     "regen8: 8xAND2 8xXNOR2 16xDFF 8xHADD"},
    {"regenerator_netlist(8, true)",
     "regen8(private-rng): 8xAND2 3xXOR2 8xXNOR2 24xDFF 8xHADD"},
    {"regenerator_netlist(12)",
     "regen12: 12xAND2 12xXNOR2 24xDFF 12xHADD"},
    {"regenerator_netlist(12, true)",
     "regen12(private-rng): 12xAND2 3xXOR2 12xXNOR2 36xDFF 12xHADD"},
    {"sync_max_netlist()",
     "sync-max(D=1): 3xINV 4xNAND2 4xAND2 4xOR2 1xXOR2 2xDFF"},
    {"sync_max_netlist(4)",
     "sync-max(D=4): 5xINV 8xNAND2 6xAND2 6xOR2 1xXOR2 4xDFF"},
    {"sync_min_netlist()",
     "sync-min(D=1): 3xINV 4xNAND2 5xAND2 3xOR2 1xXOR2 2xDFF"},
    {"sync_min_netlist(4)",
     "sync-min(D=4): 5xINV 8xNAND2 7xAND2 5xOR2 1xXOR2 4xDFF"},
    {"desync_sat_add_netlist()",
     "desync-satadd(D=1): 3xINV 7xNAND2 4xAND2 4xOR2 1xXOR2 2xDFF"},
    {"desync_sat_add_netlist(4)",
     "desync-satadd(D=4): 5xINV 11xNAND2 6xAND2 6xOR2 1xXOR2 4xDFF"},
    {"ca_max_netlist()",
     "ca-max(b=16): 1xINV 1xMUX2 16xDFF 16xFADD"},
    {"ca_max_netlist(8)",
     "ca-max(b=8): 1xINV 1xMUX2 8xDFF 8xFADD"},
    {"fsm_unit_netlist(8)",
     "fsm-unit(S=8): 4xINV 6xNAND2 8xAND2 4xOR2 1xXOR2 3xDFF"},
    {"fsm_unit_netlist(33)",
     "fsm-unit(S=33): 7xINV 12xNAND2 14xAND2 7xOR2 1xXOR2 6xDFF"},
    {"mux_tree_netlist(4, 8)",
     "mux-tree(4:1): 2xINV 2xAND2 3xMUX2"},
    {"mux_tree_netlist(9, 12)",
     "mux-tree(9:1): 4xINV 4xAND2 8xMUX2"},
    {"roberts_cross_netlist()",
     "roberts-cross: 2xXOR2 1xMUX2"},
    {"resc_netlist(3, 8)",
     "resc(n=3): 32xAND2 3xXOR2 32xXNOR2 3xMUX2 8xDFF 2xFADD"},
    {"resc_netlist(5, 10)",
     "resc(n=5): 60xAND2 3xXOR2 60xXNOR2 5xMUX2 10xDFF 4xFADD"},
};

TEST(Designs, EveryBuilderKeepsItsLabelAndCells) {
  const std::vector<std::pair<std::string, Netlist>> designs =
      design_netlists();
  if (std::getenv("SC_GOLDEN_PRINT") != nullptr) {
    std::printf("constexpr const char* kDesignStrings[][2] = {\n");
    for (const auto& [call, netlist] : designs) {
      std::printf("    {\"%s\",\n     \"%s\"},\n", call.c_str(),
                  netlist.to_string().c_str());
    }
    std::printf("};\n");
    GTEST_SKIP() << "SC_GOLDEN_PRINT set: printed the netlists instead of "
                    "checking them";
  }
  ASSERT_EQ(designs.size(), std::size(kDesignStrings));
  for (std::size_t i = 0; i < designs.size(); ++i) {
    EXPECT_EQ(designs[i].first, kDesignStrings[i][0]);
    EXPECT_EQ(designs[i].second.to_string(), kDesignStrings[i][1])
        << designs[i].first;
  }
}

}  // namespace
}  // namespace sc::hw
