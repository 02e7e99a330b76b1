#include "func/bernstein.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bitstream/encoding.hpp"
#include "convert/sng.hpp"
#include "core/shuffle_buffer.hpp"
#include "core/pair_transform.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/sobol.hpp"
#include "rng/van_der_corput.hpp"

namespace sc::func {

std::vector<double> bernstein_coefficients(
    const std::function<double(double)>& f, std::size_t degree) {
  std::vector<double> coefficients(degree + 1);
  for (std::size_t i = 0; i <= degree; ++i) {
    const double t =
        degree == 0 ? 0.0
                    : static_cast<double>(i) / static_cast<double>(degree);
    coefficients[i] = std::clamp(f(t), 0.0, 1.0);
  }
  return coefficients;
}

double bernstein_value(sc::span<const double> coefficients, double x) {
  if (coefficients.empty()) {
    throw std::invalid_argument("func::bernstein_value: no coefficients");
  }
  const std::size_t n = coefficients.size() - 1;
  // de Casteljau evaluation: numerically stable for any degree.
  std::vector<double> beta(coefficients.begin(), coefficients.end());
  for (std::size_t level = 1; level <= n; ++level) {
    for (std::size_t i = 0; i <= n - level; ++i) {
      beta[i] = beta[i] * (1.0 - x) + beta[i + 1] * x;
    }
  }
  return beta[0];
}

double resc_expected(sc::span<const double> coefficients,
                     sc::span<const double> copy_values) {
  if (coefficients.size() != copy_values.size() + 1) {
    throw std::invalid_argument(
        "func::resc_expected: needs one coefficient more than copy values");
  }
  // Poisson-binomial DP: dist[k] = P(k of the copies emit 1 this cycle).
  std::vector<double> dist(copy_values.size() + 1, 0.0);
  dist[0] = 1.0;
  for (std::size_t c = 0; c < copy_values.size(); ++c) {
    const double p = std::clamp(copy_values[c], 0.0, 1.0);
    for (std::size_t k = c + 1; k > 0; --k) {
      dist[k] = dist[k] * (1.0 - p) + dist[k - 1] * p;
    }
    dist[0] *= 1.0 - p;
  }
  double expected = 0.0;
  for (std::size_t k = 0; k < dist.size(); ++k) {
    expected += dist[k] * coefficients[k];
  }
  return expected;
}

Bitstream resc_evaluate(sc::span<const Bitstream> copies,
                        sc::span<const Bitstream> coefficient_streams) {
  if (copies.empty()) {
    throw std::invalid_argument("func::resc_evaluate: no copies");
  }
  if (coefficient_streams.size() != copies.size() + 1) {
    throw std::invalid_argument(
        "func::resc_evaluate: needs one coefficient stream more than copies");
  }
  const std::size_t n = copies.front().size();
  for (const Bitstream& copy : copies) {
    require_same_size("func::resc_evaluate", copy.size(), n);
  }
  for (const Bitstream& coefficient : coefficient_streams) {
    require_same_size("func::resc_evaluate", coefficient.size(), n);
  }
  Bitstream out(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::size_t count = 0;
    for (const Bitstream& copy : copies) count += copy.get(t) ? 1 : 0;
    if (coefficient_streams[count].get(t)) out.set(t, true);
  }
  return out;
}

double resc_apply(const std::function<double(double)>& f, double x,
                  const RescConfig& config) {
  const std::size_t n = config.stream_length;
  // 64-bit: `1u << 32` is undefined.
  const std::uint64_t natural = std::uint64_t{1} << config.sng_width;
  const std::uint64_t level = unipolar_level64(x, natural);

  // --- copies of x per strategy ------------------------------------------
  std::vector<Bitstream> copies;
  copies.reserve(config.degree);
  switch (config.strategy) {
    case CopyStrategy::kIndependentSources: {
      // One private low-discrepancy source per copy (distinct Sobol
      // dimensions; the hardware-expensive reference).
      for (std::size_t k = 0; k < config.degree; ++k) {
        convert::Sng sng(std::make_unique<rng::Sobol>(
            config.sng_width, static_cast<unsigned>(1 + k)));
        copies.push_back(sng.generate(level, n));
      }
      break;
    }
    case CopyStrategy::kSharedSource: {
      convert::Sng sng(std::make_unique<rng::Lfsr>(config.sng_width,
                                                   config.seed));
      const Bitstream base = sng.generate(level, n);
      for (std::size_t k = 0; k < config.degree; ++k) copies.push_back(base);
      break;
    }
    case CopyStrategy::kDecorrelatorChain: {
      convert::Sng sng(std::make_unique<rng::Lfsr>(config.sng_width,
                                                   config.seed));
      Bitstream current = sng.generate(level, n);
      copies.push_back(current);
      for (std::size_t k = 1; k < config.degree; ++k) {
        core::ShuffleBuffer buffer(
            config.shuffle_depth,
            std::make_unique<rng::Lfsr>(
                config.sng_width,
                config.seed + 13 * static_cast<std::uint32_t>(k)));
        current = core::apply(buffer, current);
        copies.push_back(current);
      }
      break;
    }
  }

  // --- coefficient streams (constants; private LFSR bank) -----------------
  const std::vector<double> coefficients =
      bernstein_coefficients(f, config.degree);
  std::vector<Bitstream> coefficient_streams;
  coefficient_streams.reserve(coefficients.size());
  for (std::size_t i = 0; i < coefficients.size(); ++i) {
    convert::Sng sng(std::make_unique<rng::Lfsr>(
        config.sng_width,
        config.seed + 101 * static_cast<std::uint32_t>(i + 1)));
    coefficient_streams.push_back(
        sng.generate(unipolar_level64(coefficients[i], natural), n));
  }

  return resc_evaluate(copies, coefficient_streams).value();
}

}  // namespace sc::func
