/// \file bernstein.hpp
/// Bernstein-polynomial SC function synthesis (Qian & Riedel's ReSC
/// architecture): evaluate f(x) = sum_i b_i * B_{i,n}(x) with an n-input
/// adder (population count of n copies of x) selecting among n+1
/// coefficient streams.
///
/// The architecture *requires n mutually uncorrelated copies of x* - the
/// canonical consumer for the paper's decorrelator.  This module evaluates
/// the polynomial for three copy-generation strategies so the decorrelator's
/// value can be quantified end to end:
///   * kIndependentSources - one private RNG per copy (the expensive ideal)
///   * kSharedSource       - one RNG for all copies (broken: the popcount
///                           collapses to 0 or n every cycle)
///   * kDecorrelatorChain  - one RNG + a chain of shuffle buffers making
///                           each successive copy from the previous one
///                           (the paper-style fix: tiny hardware, no
///                           binary conversion)

#pragma once

#include <cstddef>
#include <functional>
#include "common/span.hpp"
#include <vector>

#include "bitstream/bitstream.hpp"

namespace sc::func {

/// Bernstein coefficients of the degree-n approximation of f on [0,1]
/// using the Bernstein operator: b_i = f(i / n), clamped to [0, 1].
/// (B_n f converges uniformly to f; for smooth f the error is O(1/n).)
std::vector<double> bernstein_coefficients(
    const std::function<double(double)>& f, std::size_t degree);

/// Reference evaluation of sum_i b_i B_{i,n}(x) in floating point.  No
/// coefficients throws std::invalid_argument.
double bernstein_value(sc::span<const double> coefficients, double x);

/// Expected ReSC output for *independent* copies with possibly unequal
/// values: E[out] = sum_k P(popcount = k) * b_k, with the popcount
/// distribution the Poisson-binomial of the copy values
/// (copies.size() = coefficients.size() - 1, else std::invalid_argument).
/// Equals bernstein_value(coefficients, x) when every copy value is x.
double resc_expected(sc::span<const double> coefficients,
                     sc::span<const double> copy_values);

/// Core ReSC evaluation: per cycle, count the 1s among the x-copies and
/// emit that coefficient stream's bit.  copies.size() = n,
/// coefficient_streams.size() = n + 1, all streams one length; anything else
/// (no copies included) throws std::invalid_argument.
Bitstream resc_evaluate(sc::span<const Bitstream> copies,
                        sc::span<const Bitstream> coefficient_streams);

/// How the n copies of x are produced (see file comment).
enum class CopyStrategy {
  kIndependentSources,
  kSharedSource,
  kDecorrelatorChain,
};

/// Parameters for the self-contained evaluator.
struct RescConfig {
  std::size_t degree = 4;          ///< n (copies of x)
  std::size_t stream_length = 256;
  unsigned sng_width = 8;
  CopyStrategy strategy = CopyStrategy::kDecorrelatorChain;
  std::size_t shuffle_depth = 8;   ///< decorrelator-chain buffer depth
  std::uint32_t seed = 5;
};

/// Generates copies + coefficient streams and evaluates f at x.
/// Coefficient streams always come from private LFSRs (they are constants,
/// shared across all evaluations in real designs).
double resc_apply(const std::function<double(double)>& f, double x,
                  const RescConfig& config);

}  // namespace sc::func
