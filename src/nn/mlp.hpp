/// \file mlp.hpp
/// Hybrid stochastic-binary neural-network substrate, after the paper's
/// ref [9] (Lee et al., DATE 2017) and the SC-DCNN line (ref [12]).
///
/// A dense layer computes, per output neuron,
///     out_j = tanh(alpha * (mean_i(w_ji * x_i) + b_j))
/// with the multiply-accumulate done stochastically: bipolar XNOR
/// multiplies feeding an accumulative parallel counter (APC), whose binary
/// mean is exact - no MUX-adder precision loss.  The activation and bias
/// run in the binary domain (the "hybrid" part), and the result is
/// re-encoded for the next layer.
///
/// Correlation is the crux: every (w_ji, x_i) pair must be *uncorrelated*
/// for the XNOR products to be right.  Strategies evaluated here:
///   kTwoRngs       - all weights share RNG A, all inputs share RNG B.
///                    Cross pairs are uncorrelated: accurate and cheap
///                    (2 RNGs total) - the amortization the paper's §II-B
///                    describes.
///   kSingleRng     - everything from one RNG: broken (XNOR reads
///                    1 - |w - x| instead of w * x).
///   kDecorrelated  - one RNG + shuffle-buffer chains decorrelating the
///                    weight streams in-stream (paper Fig. 4 applied).

#pragma once

#include <cstdint>
#include "common/span.hpp"
#include <vector>

#include "bitstream/bitstream.hpp"

namespace sc::nn {

/// Bipolar stochastic dot product: mean_i over XNOR(x_i, w_i), read back
/// through an APC.  Returns the bipolar mean (1/k) sum_i w_i x_i, exact up
/// to stream quantization when all pairs are uncorrelated.  Spans of
/// unequal size, or empty ones, throw std::invalid_argument.
double sc_dot_bipolar(sc::span<const Bitstream> x,
                      sc::span<const Bitstream> w);

/// One dense layer: weights[j][i], bias[j], activation tanh(alpha * pre).
struct Dense {
  std::vector<std::vector<double>> weights;  ///< [outputs][inputs], in [-1,1]
  std::vector<double> bias;                  ///< per output, in [-1,1]
  double alpha = 4.0;                        ///< activation gain

  [[nodiscard]] std::size_t inputs() const {
    return weights.empty() ? 0 : weights.front().size();
  }
  [[nodiscard]] std::size_t outputs() const { return weights.size(); }
};

/// Floating-point reference forward pass of one layer.  Here and in
/// forward_sc, x.size() != layer.inputs() throws std::invalid_argument.
std::vector<double> forward_float(const Dense& layer,
                                  sc::span<const double> x);

/// RNG provisioning strategy for the stochastic MAC (see file comment).
enum class RngStrategy { kTwoRngs, kSingleRng, kDecorrelated };

struct MlpConfig {
  std::size_t stream_length = 1024;
  unsigned width = 8;
  RngStrategy strategy = RngStrategy::kTwoRngs;
  std::size_t shuffle_depth = 8;  ///< for kDecorrelated
  std::uint32_t seed = 13;
};

/// Stochastic forward pass of one layer: encodes x and the weights,
/// multiplies/accumulates stochastically, applies bias + tanh in binary.
/// Inputs and outputs are bipolar values in [-1, 1].
std::vector<double> forward_sc(const Dense& layer, sc::span<const double> x,
                               const MlpConfig& config = {});

/// Stochastic forward pass through a stack of layers.
std::vector<double> forward_sc(sc::span<const Dense> layers,
                               sc::span<const double> x,
                               const MlpConfig& config = {});
std::vector<double> forward_float(sc::span<const Dense> layers,
                                  sc::span<const double> x);

/// A tiny reference network computing XOR on bipolar inputs (+1 = true),
/// used by tests and the bench as a end-to-end classification workload.
std::vector<Dense> xor_network();

}  // namespace sc::nn
