#include "img/sc_pipeline.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "bitstream/encoding.hpp"
#include "convert/regenerator.hpp"
#include "core/pair_transform.hpp"
#include "core/synchronizer.hpp"
#include "engine/batch.hpp"
#include "engine/session.hpp"
#include "hw/designs.hpp"
#include "img/kernels.hpp"
#include "rng/lfsr.hpp"

namespace sc::img {
namespace {

using sc::Bitstream;

/// Cumulative 16-slot thresholds of the binomial kernel: a uniform value
/// u in [0,16) selects neighbor k iff u < threshold[k] and u >= threshold[k-1].
constexpr std::array<int, 9> kCumulativeWeights = {1, 3, 4, 6, 10, 12, 13,
                                                   15, 16};

int select_neighbor(unsigned slot) {
  for (int k = 0; k < 9; ++k) {
    if (static_cast<int>(slot) < kCumulativeWeights[static_cast<std::size_t>(k)]) {
      return k;
    }
  }
  return 8;
}

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
void process_tile(const Image& input, Variant variant,
                  const PipelineConfig& config, std::size_t tx, std::size_t ty,
                  Generators& gen, Image& output) {
  const std::size_t n = config.stream_length;
  const std::size_t t = config.tile;
  // 64-bit: a width-32 generator's natural length 2^32 does not fit uint32.
  const std::uint64_t natural = std::uint64_t{1} << config.sng_width;

  const std::ptrdiff_t c0 = static_cast<std::ptrdiff_t>(tx * t);
  const std::ptrdiff_t r0 = static_cast<std::ptrdiff_t>(ty * t);

  // --- input SN generation: (t+3)^2 streams from the shared bank ----
  // Bank traces are generated once per tile; every comparator on the
  // same bank sees the same per-cycle random value.
  const std::size_t in_side = t + 3;
  std::vector<std::vector<std::uint32_t>> bank_trace(gen.banks.size());
  for (std::size_t b = 0; b < gen.banks.size(); ++b) {
    bank_trace[b].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      bank_trace[b][i] = gen.banks[b].next();
    }
  }
  std::vector<Bitstream> in_streams(in_side * in_side);
  for (std::size_t iy = 0; iy < in_side; ++iy) {
    for (std::size_t ix = 0; ix < in_side; ++ix) {
      const double pixel =
          input.at_clamped(c0 - 1 + static_cast<std::ptrdiff_t>(ix),
                           r0 - 1 + static_cast<std::ptrdiff_t>(iy));
      const std::uint64_t level = unipolar_level64(pixel, natural);
      const std::size_t bank = (ix + iy) % gen.banks.size();
      Bitstream s(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (bank_trace[bank][i] < level) s.set(i, true);
      }
      in_streams[iy * in_side + ix] = std::move(s);
    }
  }

  // --- Gaussian blur: shared select trace, 9-to-1 sampling ----------
  const std::size_t gb_side = t + 1;
  std::vector<int> gb_pick(n);
  for (std::size_t i = 0; i < n; ++i) {
    gb_pick[i] = select_neighbor(gen.gb_select.next() & 15u);
  }
  std::vector<Bitstream> gb_streams(gb_side * gb_side);
  for (std::size_t gy = 0; gy < gb_side; ++gy) {
    for (std::size_t gx = 0; gx < gb_side; ++gx) {
      Bitstream g(n);
      for (std::size_t i = 0; i < n; ++i) {
        const int k = gb_pick[i];
        const std::size_t nx = gx + static_cast<std::size_t>(k % 3);
        const std::size_t ny = gy + static_cast<std::size_t>(k / 3);
        // Window of GB output (gx,gy) covers input pixels
        // (gx .. gx+2, gy .. gy+2) in halo coordinates.
        if (in_streams[ny * in_side + nx].get(i)) g.set(i, true);
      }
      gb_streams[gy * gb_side + gx] = std::move(g);
    }
  }

  // --- variant: correlation manipulation between GB and ED ----------
  if (variant == Variant::kRegeneration) {
    gb_streams = convert::regenerate_bus_correlated(gb_streams, gen.regen);
  }

  // --- edge detection ------------------------------------------------
  Bitstream ed_sel(n);
  {
    const std::uint64_t half = natural / 2;
    for (std::size_t i = 0; i < n; ++i) {
      if (gen.ed_select.next() < half) ed_sel.set(i, true);
    }
  }
  for (std::size_t y = 0; y < t; ++y) {
    for (std::size_t x = 0; x < t; ++x) {
      const std::size_t ox = tx * t + x;
      const std::size_t oy = ty * t + y;
      if (ox >= input.width() || oy >= input.height()) continue;

      const Bitstream& a = gb_streams[y * gb_side + x];
      const Bitstream& d = gb_streams[(y + 1) * gb_side + (x + 1)];
      const Bitstream& b = gb_streams[y * gb_side + (x + 1)];
      const Bitstream& c = gb_streams[(y + 1) * gb_side + x];

      Bitstream diff_ad;
      Bitstream diff_bc;
      if (variant == Variant::kSynchronizer) {
        core::Synchronizer s1({config.sync_depth, false});
        core::Synchronizer s2({config.sync_depth, false});
        const sc::StreamPair ad = core::apply(s1, a, d);
        const sc::StreamPair bc = core::apply(s2, b, c);
        diff_ad = ad.x ^ ad.y;
        diff_bc = bc.x ^ bc.y;
      } else {
        diff_ad = a ^ d;
        diff_bc = b ^ c;
      }
      const Bitstream ed = Bitstream::mux(diff_ad, diff_bc, ed_sel);
      output.at(ox, oy) = ed.value();
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
    px[i] = b.input("p" + std::to_string(i / 4) + std::to_string(i % 4),
                    pixels[i], i % rng_groups);
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
