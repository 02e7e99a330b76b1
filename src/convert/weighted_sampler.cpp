#include "convert/weighted_sampler.hpp"

#include <cassert>
#include <stdexcept>

namespace sc::convert {

WeightedSampler::WeightedSampler(std::vector<std::uint32_t> weights,
                                 rng::RandomSourcePtr source)
    : weights_(std::move(weights)), source_(std::move(source)) {
  if (weights_.empty()) {
    throw std::invalid_argument("convert::WeightedSampler: no weights");
  }
  if (source_ == nullptr) {
    throw std::invalid_argument("convert::WeightedSampler: null source");
  }
  cumulative_.reserve(weights_.size());
  std::uint32_t running = 0;
  for (std::uint32_t w : weights_) {
    running += w;
    cumulative_.push_back(running);
  }
  total_ = running;
  // A zero total would reach `next() % 0` on the first step().
  if (total_ == 0) {
    throw std::invalid_argument("convert::WeightedSampler: weights sum to 0");
  }
  assert(total_ <= source_->range());
}

std::size_t WeightedSampler::step() {
  // Reduce the uniform draw into [0, total). When total divides the source
  // range the modulo is exact; the 9-slot binomial kernel uses total = 16
  // against an 8-bit source, for example.
  const std::uint32_t u =
      static_cast<std::uint32_t>(source_->next() % total_);
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return i;
  }
  return cumulative_.size() - 1;  // unreachable for valid u
}

std::vector<std::uint8_t> WeightedSampler::trace(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(step());
  }
  return out;
}

}  // namespace sc::convert
