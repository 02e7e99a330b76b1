#include "img/sc_pipeline.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "arith/add.hpp"
#include "bitstream/bitstream.hpp"
#include "bitstream/encoding.hpp"
#include "common/simd.hpp"
#include "convert/regenerator.hpp"
#include "core/synchronizer.hpp"
#include "engine/session.hpp"
#include "hw/designs.hpp"
#include "img/kernels.hpp"
#include "rng/lfsr.hpp"

namespace sc::img {
namespace {

using Word = sc::Bitstream::Word;

/// Per-run stream generation state: free-running LFSRs shared across tiles,
/// exactly as a hardware tile engine would run them.
struct Generators {
  std::vector<rng::Lfsr> banks;
  rng::Lfsr gb_select;
  rng::Lfsr ed_select;
  rng::Lfsr regen;

  Generators(const PipelineConfig& config)
      : gb_select(config.sng_width, config.seed + 101),
        ed_select(config.sng_width, config.seed + 211),
        regen(config.sng_width, config.seed + 307) {
    for (unsigned b = 0; b < config.input_banks; ++b) {
      banks.emplace_back(config.sng_width, config.seed + 11 * (b + 1));
    }
  }
};

/// Simulates one output tile, writing its pixels into `output`.  Streams
/// are produced by `gen`, whose LFSRs advance as a hardware tile engine's
/// would; the caller decides whether generators free-run across tiles
/// (serial engine) or are freshly seeded per tile (tile-engine array).
///
/// Every stream of the tile is `words` packed words in a flat buffer
/// local to this call, tail bits clear.  Each generator draws exactly n
/// values per tile (the regeneration RNG only in that variant), as the
/// per-cycle hardware does, so tiles after this one see the same draws.
void process_tile(const Image& input, Variant variant,
                  const PipelineConfig& config, std::size_t tx, std::size_t ty,
                  Generators& gen, Image& output) {
  const std::size_t n = config.stream_length;
  const std::size_t t = config.tile;
  const std::size_t words = (n + 63) / 64;
  // 64-bit: a width-32 generator's natural length 2^32 does not fit uint32.
  const std::uint64_t natural = std::uint64_t{1} << config.sng_width;

  const std::ptrdiff_t c0 = static_cast<std::ptrdiff_t>(tx * t);
  const std::ptrdiff_t r0 = static_cast<std::ptrdiff_t>(ty * t);

  // --- input SN generation: (t+3)^2 streams from the shared bank ----
  // Bank traces are drawn once per tile; every comparator on the same
  // bank sees the same per-cycle random value.
  const std::size_t in_side = t + 3;
  const std::size_t banks = gen.banks.size();
  std::vector<std::uint32_t> trace(banks * n);
  for (std::size_t b = 0; b < banks; ++b) {
    gen.banks[b].fill(trace.data() + b * n, n);
  }
  std::vector<Word> in(in_side * in_side * words);
  for (std::size_t iy = 0; iy < in_side; ++iy) {
    for (std::size_t ix = 0; ix < in_side; ++ix) {
      const double pixel =
          input.at_clamped(c0 - 1 + static_cast<std::ptrdiff_t>(ix),
                           r0 - 1 + static_cast<std::ptrdiff_t>(iy));
      simd::pack_compare_lt(trace.data() + (ix + iy) % banks * n, n,
                            unipolar_level64(pixel, natural),
                            in.data() + (iy * in_side + ix) * words);
    }
  }

  // --- Gaussian blur: shared select trace, 9-to-1 sampling ----------
  // Output (gx,gy)'s window covers input pixels (gx .. gx+2, gy .. gy+2)
  // in halo coordinates; pixel k of it is (gx + k % 3, gy + k / 3).
  // The select draws reuse the first bank's trace buffer, now spent.
  const std::size_t gb_side = t + 1;
  std::vector<Word> masks(9 * words);
  gen.gb_select.fill(trace.data(), n);
  arith::blur_select_masks(trace.data(), n, masks.data(), words);
  std::vector<Word> gb(gb_side * gb_side * words);
  for (std::size_t gy = 0; gy < gb_side; ++gy) {
    for (std::size_t gx = 0; gx < gb_side; ++gx) {
      Word* g = gb.data() + (gy * gb_side + gx) * words;
      for (std::size_t k = 0; k < 9; ++k) {
        const Word* x =
            in.data() + ((gy + k / 3) * in_side + gx + k % 3) * words;
        const Word* mask = masks.data() + k * words;
        for (std::size_t i = 0; i < words; ++i) g[i] |= x[i] & mask[i];
      }
    }
  }

  // --- variant: correlation manipulation between GB and ED ----------
  if (variant == Variant::kRegeneration) {
    std::vector<Word*> streams(gb_side * gb_side);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      streams[s] = gb.data() + s * words;
    }
    convert::regenerate_bus_correlated(streams, n, gen.regen);
  }
  // One synchronizer per diagonal, restarted per pixel pair: a fresh
  // circuit per pair, with one table fetch per tile.  Other variants
  // build none, so sync_depth is only checked where it is used.
  std::vector<core::Synchronizer> sync;
  if (variant == Variant::kSynchronizer) {
    sync.assign(2, core::Synchronizer({config.sync_depth, false}));
  }

  // --- edge detection ------------------------------------------------
  std::vector<Word> ed_sel(words);
  gen.ed_select.fill_compare(ed_sel.data(), n, natural / 2);
  // Scratch copies of the four operands (a, d, b, c): the synchronizers
  // run in place, and each GB output feeds up to four pixels.
  std::vector<Word> pair(4 * words);
  Word* a = pair.data();
  Word* d = a + words;
  Word* b = d + words;
  Word* c = b + words;
  const auto copy = [&](std::size_t gx, std::size_t gy, Word* to) {
    std::copy_n(gb.data() + (gy * gb_side + gx) * words, words, to);
  };
  for (std::size_t y = 0; y < t; ++y) {
    for (std::size_t x = 0; x < t; ++x) {
      const std::size_t ox = tx * t + x;
      const std::size_t oy = ty * t + y;
      if (ox >= input.width() || oy >= input.height()) continue;

      copy(x, y, a);
      copy(x + 1, y + 1, d);
      copy(x + 1, y, b);
      copy(x, y + 1, c);
      if (!sync.empty()) {
        sync[0].begin_stream(n);
        sync[0].process(a, d, n);
        sync[1].begin_stream(n);
        sync[1].process(b, c, n);
      }
      // XOR each diagonal, MUX the two differences.
      std::uint64_t ones = 0;
      for (std::size_t i = 0; i < words; ++i) {
        const Word diff_ad = a[i] ^ d[i];
        const Word diff_bc = b[i] ^ c[i];
        ones += std::popcount((diff_ad & ~ed_sel[i]) | (diff_bc & ed_sel[i]));
      }
      output.at(ox, oy) =
          n == 0 ? 0.0 : static_cast<double>(ones) / static_cast<double>(n);
    }
  }
}

/// Rejects inputs both entry points would divide by or index with: tile
/// 0 and input_banks 0 divide by zero, and an empty image has no pixel
/// to clamp to.
void validate(const Image& input, const PipelineConfig& config) {
  if (input.empty()) {
    throw std::invalid_argument("img pipeline: input image is empty");
  }
  if (config.tile == 0) {
    throw std::invalid_argument("img pipeline: tile must be >= 1");
  }
  if (config.input_banks == 0) {
    throw std::invalid_argument("img pipeline: input_banks must be >= 1");
  }
}

/// Hardware accounting shared by the serial and tiled paths (one tile
/// engine processing all tiles serially, the paper's operating model).
void account_cost(PipelineResult& result, Variant variant,
                  const PipelineConfig& config, std::size_t tiles) {
  const hw::Netlist base = pipeline_base_netlist(config);
  const hw::Netlist overhead = pipeline_overhead_netlist(variant, config);
  hw::Netlist full = base + overhead;
  full.set_label(to_string(variant));

  hw::CostConfig cost_config;
  cost_config.clock_hz = config.clock_hz;
  cost_config.cycles = tiles * config.stream_length;

  result.cost.netlist = full;
  result.cost.report = hw::evaluate(full, cost_config);
  result.cost.energy_nj_frame = result.cost.report.energy_nj();
  result.cost.tiles = tiles;

  const hw::CostReport overhead_report = hw::evaluate(overhead, cost_config);
  result.cost.overhead_power_uw = overhead_report.power_uw;
  result.cost.overhead_energy_nj = overhead_report.energy_nj();
  const std::size_t t = config.tile;
  switch (variant) {
    case Variant::kNoManipulation:
      result.cost.manipulator_units = 0;
      break;
    case Variant::kRegeneration:
      result.cost.manipulator_units = (t + 1) * (t + 1);
      break;
    case Variant::kSynchronizer:
      result.cost.manipulator_units = 2 * t * t;
      break;
  }
}

}  // namespace

std::string to_string(Variant variant) {
  switch (variant) {
    case Variant::kNoManipulation:
      return "SC no-manipulation";
    case Variant::kRegeneration:
      return "SC regeneration";
    case Variant::kSynchronizer:
      return "SC synchronizer";
  }
  return "?";
}

hw::Netlist pipeline_base_netlist(const PipelineConfig& config) {
  const std::uint64_t t = config.tile;
  const std::uint64_t in_pixels = (t + 3) * (t + 3);
  const std::uint64_t gb_units = (t + 1) * (t + 1);
  const std::uint64_t ed_units = t * t;
  const unsigned w = config.sng_width;

  hw::Netlist n("pipeline-base");
  // Input tile buffer: one w-bit register per input pixel (loaded once per
  // tile; clock-gated flops).
  n.add(hw::Cell::kDffEn, in_pixels * w);
  // Input SNG comparators (RNG bank shared).
  n += hw::comparator_netlist(w) * in_pixels;
  // Input RNG bank.
  n += hw::lfsr_netlist(w) * config.input_banks;
  // GB: 9-to-1 mux tree per unit plus one shared weight decoder and RNG.
  hw::Netlist gb("gb-mux");
  gb.add(hw::Cell::kMux2, 8);
  n += gb * gb_units;
  hw::Netlist decoder("weight-decoder");
  decoder.add(hw::Cell::kNand2, 8).add(hw::Cell::kInv, 4);
  n += decoder;
  n += hw::lfsr_netlist(w);  // GB select RNG
  // ED: two XORs + one MUX per output plus one shared select RNG.
  hw::Netlist ed("ed-kernel");
  ed.add(hw::Cell::kXor2, 2).add(hw::Cell::kMux2, 1);
  n += ed * ed_units;
  n += hw::lfsr_netlist(w);  // ED select RNG
  // Output S/D counters.
  n += hw::sd_converter_netlist(w) * ed_units;
  n.set_label("pipeline-base");
  return n;
}

hw::Netlist pipeline_overhead_netlist(Variant variant,
                                      const PipelineConfig& config) {
  const std::uint64_t t = config.tile;
  const std::uint64_t gb_units = (t + 1) * (t + 1);
  const std::uint64_t ed_units = t * t;

  switch (variant) {
    case Variant::kNoManipulation:
      return hw::Netlist("no-manipulation");
    case Variant::kRegeneration: {
      // One regenerator per GB output plus the shared D/S RNG.
      hw::Netlist n = hw::regenerator_netlist(config.sng_width) * gb_units;
      n += hw::lfsr_netlist(config.sng_width);
      n.set_label("regeneration-overhead");
      return n;
    }
    case Variant::kSynchronizer: {
      // Two synchronizers per ED output (one per XOR operand pair).
      hw::Netlist n =
          hw::synchronizer_netlist(config.sync_depth) * (2 * ed_units);
      n.set_label("synchronizer-overhead");
      return n;
    }
  }
  return hw::Netlist{};
}

PipelineResult run_pipeline(const Image& input, Variant variant,
                            const PipelineConfig& config) {
  validate(input, config);
  const std::size_t t = config.tile;

  PipelineResult result;
  result.variant = variant;
  result.reference = reference_pipeline(input);
  result.output = Image(input.width(), input.height());

  // One tile engine with free-running LFSRs, processing tiles serially.
  Generators gen(config);

  const std::size_t tiles_x = (input.width() + t - 1) / t;
  const std::size_t tiles_y = (input.height() + t - 1) / t;

  for (std::size_t ty = 0; ty < tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < tiles_x; ++tx) {
      process_tile(input, variant, config, tx, ty, gen, result.output);
    }
  }

  result.error = mean_abs_error(result.output, result.reference);
  account_cost(result, variant, config, tiles_x * tiles_y);
  return result;
}

PipelineResult run_pipeline_tiled(const Image& input, Variant variant,
                                  const PipelineConfig& config,
                                  engine::Session& session) {
  validate(input, config);
  const std::size_t t = config.tile;

  PipelineResult result;
  result.variant = variant;
  result.reference = reference_pipeline(input);
  result.output = Image(input.width(), input.height());

  const std::size_t tiles_x = (input.width() + t - 1) / t;
  const std::size_t tiles_y = (input.height() + t - 1) / t;
  const std::size_t tiles = tiles_x * tiles_y;

  // Each tile gets its own generators, seeded from the tile index: the
  // hardware analog is an array of identical tile engines with per-engine
  // seed registers.  Tiles touch disjoint output pixels, so the fan-out
  // needs no synchronization, and the output depends only on `config` —
  // not on the session's thread count or scheduling.
  session.for_each(tiles, [&](std::size_t tile_index) {
    PipelineConfig tile_config = config;
    // Strided so tile seeds stay distinct after the generators' LFSRs
    // mask them down to sng_width bits.
    tile_config.seed = engine::strided_seed32(config.seed, tile_index);
    Generators gen(tile_config);
    process_tile(input, variant, tile_config, tile_index % tiles_x,
                 tile_index / tiles_x, gen, result.output);
  });

  result.error = mean_abs_error(result.output, result.reference);
  account_cost(result, variant, config, tiles);
  return result;
}

graph::Program window_program(const std::array<double, 16>& pixels,
                              unsigned rng_groups) {
  if (rng_groups < 1) {
    // An assert vanishes under NDEBUG and `i % rng_groups` would divide
    // by zero (same class as the overlap() release-mode fix).
    throw std::invalid_argument("window_program: rng_groups must be >= 1");
  }
  graph::GraphBuilder b;
  std::array<graph::Value, 16> px;
  for (unsigned i = 0; i < 16; ++i) {
    std::string name = "p";
    name += std::to_string(i / 4);
    name += std::to_string(i % 4);
    px[i] = b.input(name, pixels[i], i % rng_groups);
  }
  // Four overlapping 3x3 blur windows centered on the inner 2x2.
  std::array<graph::Value, 4> blurred;
  for (unsigned cy = 0; cy < 2; ++cy) {
    for (unsigned cx = 0; cx < 2; ++cx) {
      std::vector<graph::Value> window;
      window.reserve(9);
      for (unsigned dy = 0; dy < 3; ++dy) {
        for (unsigned dx = 0; dx < 3; ++dx) {
          window.push_back(px[(cy + dy) * 4 + (cx + dx)]);
        }
      }
      blurred[cy * 2 + cx] = b.op("gaussian-blur-3x3", window);
    }
  }
  b.output(b.op("roberts-cross", {blurred[0], blurred[1], blurred[2],
                                  blurred[3]}),
           "edge");
  return b.build();
}

double window_reference(const std::array<double, 16>& pixels) {
  // Deliberately independent of the registry's exact() lambdas (weights
  // and Roberts formula restated): this is the cross-check that keeps the
  // registered operator semantics honest, so do not fold it into them.
  static constexpr double kW[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  double g[4];
  for (unsigned cy = 0; cy < 2; ++cy) {
    for (unsigned cx = 0; cx < 2; ++cx) {
      double sum = 0.0;
      for (unsigned dy = 0; dy < 3; ++dy) {
        for (unsigned dx = 0; dx < 3; ++dx) {
          sum += kW[dy * 3 + dx] * pixels[(cy + dy) * 4 + (cx + dx)];
        }
      }
      g[cy * 2 + cx] = sum / 16.0;
    }
  }
  return 0.5 * (std::abs(g[0] - g[3]) + std::abs(g[1] - g[2]));
}

}  // namespace sc::img
