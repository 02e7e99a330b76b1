/// \file weighted_sampler.hpp
/// Categorical (weighted) select-stream generation: the "weight decoder"
/// that drives MUX-tree weighted adders such as the Gaussian-blur kernel.
///
/// Given k integer weights summing to W, each cycle the sampler draws a
/// uniform value u in [0, W) from its random source and emits the category
/// whose cumulative-weight bucket contains u.  Over N cycles category i is
/// selected with probability w_i / W, which is what makes a k-to-1 MUX tree
/// compute the weighted average sum(w_i p_i) / W.
///
/// Correlation note: the MUX adder only needs its *select* stream to be
/// uncorrelated with the data streams; sharing one sampler across many MUX
/// trees (as the paper's tiled accelerator does) is free in accuracy but
/// positively correlates the trees' outputs - the effect the §IV pipeline
/// exploits and the synchronizer then finishes off.

#pragma once

#include <cstdint>
#include "common/span.hpp"
#include <vector>

#include "rng/random_source.hpp"

namespace sc::convert {

/// Per-cycle categorical sampler over integer weights.
class WeightedSampler {
 public:
  /// \param weights  per-category integer weights; sum must be >= 1 and,
  ///                 for unbiased sampling, should divide the source range
  ///                 (a power of two for comparator-friendly hardware).
  ///                 No weights, or a zero sum, throws
  ///                 std::invalid_argument.
  /// \param source   uniform source; owned (null throws
  ///                 std::invalid_argument).
  WeightedSampler(std::vector<std::uint32_t> weights,
                  rng::RandomSourcePtr source);

  /// Category index for this cycle, in [0, weights().size()).
  std::size_t step();

  /// Pre-draws `n` cycles of selections.
  std::vector<std::uint8_t> trace(std::size_t n);

  void reset() { source_->reset(); }

  [[nodiscard]] sc::span<const std::uint32_t> weights() const { return weights_; }
  [[nodiscard]] std::uint32_t total_weight() const { return total_; }

 private:
  std::vector<std::uint32_t> weights_;
  std::vector<std::uint32_t> cumulative_;  // exclusive prefix sums + total
  std::uint32_t total_;
  rng::RandomSourcePtr source_;
};

}  // namespace sc::convert
