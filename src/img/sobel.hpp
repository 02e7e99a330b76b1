/// \file sobel.hpp
/// SC Sobel edge detector - an application built from *all three* of the
/// paper's improved operators.
///
/// Per pixel, the Sobel magnitude is approximated as
///     |Gx|/4 + |Gy|/4 saturated at 1, with
///     Gx/4 = right-column weighted mean - left-column weighted mean
///     Gy/4 = bottom-row weighted mean  - top-row weighted mean
/// (weights {1,2,1}/4 from a shared weighted sampler).  The SC datapath:
///
///   column/row means: 3-to-1 MUX trees           (scaled add)
///   |difference|:     synchronizer + XOR         (paper Fig. 5 recipe)
///   saturating sum:   desynchronizer + OR        (paper Fig. 5c)
///
/// The no-manipulation variant drops both manipulators (bare XOR / OR),
/// which is measurably wrong - the same §IV story on a second kernel, this
/// time exercising the desynchronizer in anger.

#pragma once

#include <cstdint>

#include "hw/netlist.hpp"
#include "img/image.hpp"

namespace sc::img {

/// Floating-point reference of the SC-friendly Sobel formulation above.
Image sobel_reference(const Image& input);

struct SobelConfig {
  std::size_t stream_length = 256;
  unsigned sng_width = 8;
  unsigned input_banks = 8;
  unsigned sync_depth = 4;
  unsigned desync_depth = 4;
  std::uint32_t seed = 31;
  bool manipulate = true;  ///< false = bare XOR/OR (no-manipulation design)
};

struct SobelResult {
  Image output;
  Image reference;
  double error = 0.0;          ///< mean abs pixel error vs reference
  hw::Netlist manipulators;    ///< inserted manipulation hardware per pixel
};

/// Runs the SC Sobel detector over the image.  An empty image or
/// input_banks 0 throws std::invalid_argument.
SobelResult run_sc_sobel(const Image& input, const SobelConfig& config = {});

}  // namespace sc::img
