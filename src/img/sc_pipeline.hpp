/// \file sc_pipeline.hpp
/// The paper's §IV SC image accelerator: tiled Gaussian blur + Roberts
/// cross edge detection with three correlation-management variants.
///
/// Dataflow per 10x10 output tile (all pixels of a tile in parallel, one
/// tile at a time, N-cycle streams):
///
///   input pixels --SNG bank--> X  --GB mux tree--> G --[variant]--> G'
///   G' --XOR pairs + MUX--> ED --S/D counters--> output pixels
///
/// * Gaussian blur: 9-to-1 MUX tree sampling the 3x3 window with binomial
///   weights {1,2,4,...}/16 from a shared select decoder (inputs only need
///   to be uncorrelated with the select stream, so input SNGs amortize a
///   small LFSR bank).
/// * Roberts cross: |a-d| and |b-c| via XOR (requires *positively*
///   correlated operands) and a MUX scaled add.  GB outputs are only
///   partially correlated - this mismatch is the paper's motivating
///   example.
///
/// Variants (paper Table IV):
///  1. kNoManipulation - GB outputs feed the XORs directly (inaccurate).
///  2. kRegeneration   - every GB output is S/D->D/S re-encoded from one
///     shared RNG (all pairs SCC = +1; accurate but expensive).
///  3. kSynchronizer   - a synchronizer in front of each XOR pair
///     (accurate, ~2x more manipulator instances than regeneration uses
///     converters, but each is far cheaper - the paper's headline win).

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "graph/program.hpp"
#include "hw/cost.hpp"
#include "hw/netlist.hpp"
#include "img/image.hpp"

namespace sc::engine {
class Session;
}

namespace sc::img {

/// Correlation-management strategy between the GB and ED kernels.
enum class Variant {
  kNoManipulation,
  kRegeneration,
  kSynchronizer,
};

std::string to_string(Variant variant);

/// Accelerator parameters.
struct PipelineConfig {
  std::size_t stream_length = 256;  ///< N (bits per stream)
  std::size_t tile = 10;            ///< output tile side (paper: 10)
  unsigned sng_width = 8;           ///< SNG comparator/RNG width (N = 2^w)
  unsigned input_banks = 8;         ///< input LFSR bank size
  unsigned sync_depth = 2;          ///< synchronizer save depth D
  std::uint32_t seed = 7;           ///< base LFSR seed
  double clock_hz = 100e6;          ///< cost-model operating point
};

/// Hardware accounting of one accelerator variant.
struct PipelineCost {
  hw::Netlist netlist;          ///< full accelerator (base + overhead)
  hw::CostReport report;        ///< area/power at the operating point
  double energy_nj_frame = 0.0; ///< total energy per processed frame
  double overhead_power_uw = 0.0;   ///< correlation-manipulation power only
  double overhead_energy_nj = 0.0;  ///< correlation-manipulation energy only
  std::size_t tiles = 0;            ///< tiles per frame
  std::size_t manipulator_units = 0;  ///< # synchronizers or regenerators
};

/// Result of simulating one variant on one image.
struct PipelineResult {
  Variant variant = Variant::kNoManipulation;
  Image output;       ///< SC result
  Image reference;    ///< float pipeline on the same input
  double error = 0.0; ///< mean absolute pixel error vs reference
  PipelineCost cost;
};

/// Simulates the accelerator on `input` and accounts its hardware cost
/// (paper Table IV row for the given variant).  The simulation is a word
/// datapath (64 cycles per word: packed comparator banks, the blur's
/// select masks, the synchronizers' word paths), bit-identical to the
/// per-cycle model: every generator draws exactly N values per tile, as
/// the hardware's do.
PipelineResult run_pipeline(const Image& input, Variant variant,
                            const PipelineConfig& config = {});

/// Tile-parallel simulation: fans the image's tiles across the session's
/// thread pool.  Unlike run_pipeline (one tile engine whose LFSRs free-run
/// across tiles), every tile runs on its own generators seeded
/// deterministically from (config.seed, tile index) — the analog of an
/// array of tile engines.  The output is therefore a function of `config`
/// alone: bit-identical for every thread count, but not bit-identical to
/// the serial engine's free-running schedule (both are valid hardware
/// realizations with statistically equivalent accuracy).
PipelineResult run_pipeline_tiled(const Image& input, Variant variant,
                                  const PipelineConfig& config,
                                  engine::Session& session);

/// Netlist of the kernels + converters common to all variants (per tile
/// engine).
hw::Netlist pipeline_base_netlist(const PipelineConfig& config);

/// Netlist of the correlation-manipulation hardware a variant adds.
hw::Netlist pipeline_overhead_netlist(Variant variant,
                                      const PipelineConfig& config);

/// The pipeline's per-window dataflow as a registry program: a 4x4 pixel
/// window through four overlapping 3x3 Gaussian-blur MUX trees
/// ("gaussian-blur-3x3") into one Roberts-cross stage ("roberts-cross"),
/// output named "edge".  The GB outputs share input lineage, so the
/// planner discovers the blur->edge correlation mismatch on its own and —
/// under Strategy::kManipulation — inserts a synchronizer in front of each
/// Roberts diagonal pair, exactly the paper's Table IV "synchronizer"
/// variant, with no pipeline-specific planner code.
///
/// `pixels` is the window row-major in [0, 1]; pixel i is encoded from
/// RNG group (i % rng_groups), modeling the amortized input LFSR bank.
graph::Program window_program(const std::array<double, 16>& pixels,
                              unsigned rng_groups = 4);

/// Float reference of window_program's output (blur then Roberts cross on
/// the center 2x2), for end-to-end error checks.
double window_reference(const std::array<double, 16>& pixels);

}  // namespace sc::img
