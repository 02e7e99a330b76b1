#include "core/tfm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sc::core {

TrackingForecastMemory::TrackingForecastMemory(Config config,
                                               rng::RandomSourcePtr source)
    : config_(config), source_(std::move(source)) {
  // Checked in every build: past these bounds the fixed-point arithmetic
  // overflows (1 << precision, >> shift), and an aux source of another
  // width compares against the wrong scale, pinning every output near 0
  // (wider) or 1 (narrower).
  if (source_ == nullptr) {
    throw std::invalid_argument("core::TrackingForecastMemory: null source");
  }
  if (config_.precision < 1 || config_.precision > 30) {
    throw std::invalid_argument(
        "core::TrackingForecastMemory: precision must be in 1..30");
  }
  if (config_.shift > 31) {
    throw std::invalid_argument(
        "core::TrackingForecastMemory: shift must be <= 31");
  }
  if (source_->width() != config_.precision) {
    throw std::invalid_argument(
        "core::TrackingForecastMemory: source width must equal precision");
  }
  scale_ = std::int32_t{1} << config_.precision;
  const double init = std::clamp(config_.initial, 0.0, 1.0);
  initial_ = static_cast<std::int32_t>(
      std::lround(init * static_cast<double>(scale_)));
  estimate_ = initial_;
}

bool TrackingForecastMemory::step(bool in) {
  estimate_ = next_estimate(estimate_, in, config_.shift, scale_);
  // Regenerate from the estimate with the aux RNG.
  return static_cast<std::int32_t>(source_->next()) < estimate_;
}

void TrackingForecastMemory::reset() {
  estimate_ = initial_;
  source_->reset();
}

double TrackingForecastMemory::estimate() const {
  return static_cast<double>(estimate_) / static_cast<double>(scale_);
}

TfmPair::TfmPair(TrackingForecastMemory::Config config,
                 rng::RandomSourcePtr source_x, rng::RandomSourcePtr source_y)
    : tfm_x_(config, std::move(source_x)),
      tfm_y_(config, std::move(source_y)) {}

BitPair TfmPair::step(bool x, bool y) {
  return BitPair{tfm_x_.step(x), tfm_y_.step(y)};
}

void TfmPair::reset() {
  tfm_x_.reset();
  tfm_y_.reset();
}

}  // namespace sc::core
