#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "arith/multiply.hpp"
#include "bitstream/encoding.hpp"
#include "core/pair_transform.hpp"
#include "core/shuffle_buffer.hpp"
#include "rng/lfsr.hpp"

namespace sc::nn {
namespace {

/// Encodes a bipolar value from a shared per-call trace.  The level is
/// the unipolar level of (v + 1) / 2 over a 64-bit natural length: a
/// width-32 source's 2^32 does not fit uint32.
Bitstream encode_bipolar(double v, sc::span<const std::uint32_t> trace,
                         std::uint64_t natural) {
  const std::uint64_t level =
      unipolar_level64((std::clamp(v, -1.0, 1.0) + 1.0) / 2.0, natural);
  Bitstream out(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] < level) out.set(i, true);
  }
  return out;
}

std::vector<std::uint32_t> make_trace(rng::Lfsr& source, std::size_t n) {
  std::vector<std::uint32_t> trace(n);
  for (auto& r : trace) r = source.next();
  return trace;
}

/// A layer reads x[i] against every weight row: any other input count
/// reads past the rows or leaves weights out.
void require_layer_inputs(const char* where, const Dense& layer,
                          std::size_t inputs) {
  if (inputs != layer.inputs()) {
    throw std::invalid_argument(std::string(where) + ": " +
                                std::to_string(inputs) +
                                " inputs for a layer of " +
                                std::to_string(layer.inputs()));
  }
}

}  // namespace

double sc_dot_bipolar(sc::span<const Bitstream> x,
                      sc::span<const Bitstream> w) {
  if (x.size() != w.size() || x.empty()) {
    throw std::invalid_argument(
        "nn::sc_dot_bipolar: needs equal, non-empty input and weight spans");
  }
  // XNOR products accumulated by an APC: total ones / (k * N) is the mean
  // unipolar product value; map back to bipolar.
  std::uint64_t ones = 0;
  const std::size_t n = x.front().size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ones += arith::multiply_bipolar(x[i], w[i]).count_ones();
  }
  const double mean_unipolar =
      static_cast<double>(ones) / static_cast<double>(x.size() * n);
  return 2.0 * mean_unipolar - 1.0;
}

std::vector<double> forward_float(const Dense& layer,
                                  sc::span<const double> x) {
  require_layer_inputs("nn::forward_float", layer, x.size());
  std::vector<double> out(layer.outputs());
  for (std::size_t j = 0; j < layer.outputs(); ++j) {
    double pre = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      pre += layer.weights[j][i] * x[i];
    }
    pre /= static_cast<double>(x.size());
    pre += layer.bias[j];
    out[j] = std::tanh(layer.alpha * pre);
  }
  return out;
}

std::vector<double> forward_sc(const Dense& layer, sc::span<const double> x,
                               const MlpConfig& config) {
  require_layer_inputs("nn::forward_sc", layer, x.size());
  const std::size_t n = config.stream_length;
  // 64-bit: `1u << 32` is undefined.
  const std::uint64_t natural = std::uint64_t{1} << config.width;

  // --- encode inputs and weights per strategy ------------------------------
  rng::Lfsr input_source(config.width, config.seed + 1);
  rng::Lfsr weight_source(config.width, config.seed + 2);
  const auto input_trace = make_trace(input_source, n);
  const auto weight_trace = config.strategy == RngStrategy::kSingleRng
                                ? input_trace
                                : make_trace(weight_source, n);

  std::vector<Bitstream> inputs;
  inputs.reserve(x.size());
  for (double v : x) inputs.push_back(encode_bipolar(v, input_trace, natural));

  std::vector<double> out(layer.outputs());
  for (std::size_t j = 0; j < layer.outputs(); ++j) {
    std::vector<Bitstream> weight_streams;
    weight_streams.reserve(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      Bitstream w =
          encode_bipolar(layer.weights[j][i], weight_trace, natural);
      if (config.strategy == RngStrategy::kDecorrelated) {
        // In-stream fix: a shuffle buffer per weight stream breaks the
        // (shared-trace) correlation with the inputs.
        core::ShuffleBuffer buffer(
            config.shuffle_depth,
            std::make_unique<rng::Lfsr>(
                config.width, config.seed + 701 +
                                  17 * static_cast<std::uint32_t>(j * 31 + i)));
        w = core::apply(buffer, w);
      }
      weight_streams.push_back(std::move(w));
    }
    const double pre =
        sc_dot_bipolar(inputs, weight_streams) + layer.bias[j];
    out[j] = std::tanh(layer.alpha * pre);
  }
  return out;
}

std::vector<double> forward_sc(sc::span<const Dense> layers,
                               sc::span<const double> x,
                               const MlpConfig& config) {
  std::vector<double> current(x.begin(), x.end());
  MlpConfig layer_config = config;
  for (const Dense& layer : layers) {
    current = forward_sc(layer, current, layer_config);
    ++layer_config.seed;  // fresh sources per layer
  }
  return current;
}

std::vector<double> forward_float(sc::span<const Dense> layers,
                                  sc::span<const double> x) {
  std::vector<double> current(x.begin(), x.end());
  for (const Dense& layer : layers) {
    current = forward_float(layer, current);
  }
  return current;
}

std::vector<Dense> xor_network() {
  // Hidden: h1 = OR-ish, h2 = AND-ish; output: h1 AND NOT h2 = XOR.
  Dense hidden;
  hidden.weights = {{0.9, 0.9}, {0.9, 0.9}};
  hidden.bias = {0.45, -0.45};  // h1 fires for any +1; h2 only for both
  hidden.alpha = 6.0;
  Dense output;
  output.weights = {{0.9, -0.9}};
  output.bias = {-0.35};
  output.alpha = 6.0;
  return {hidden, output};
}

}  // namespace sc::nn
