#include "core/desynchronizer.hpp"

#include <algorithm>
#include <stdexcept>

namespace sc::core {

Desynchronizer::Desynchronizer(Config config) : config_(config) {
  if (config_.depth == 0) {
    throw std::invalid_argument("core::Desynchronizer: depth must be >= 1");
  }
  save_from_x_ = config_.prefer_x_first;
}

void Desynchronizer::reset() {
  saved_x_ = 0;
  saved_y_ = 0;
  save_from_x_ = config_.prefer_x_first;
  remaining_ = 0;
  length_known_ = false;
}

void Desynchronizer::begin_stream(std::size_t length) {
  saved_x_ = 0;
  saved_y_ = 0;
  save_from_x_ = config_.prefer_x_first;
  remaining_ = length;
  length_known_ = true;
}

void Desynchronizer::set_state(const State& state) {
  // Clamped like Synchronizer::set_state: a release build must not accept
  // counters that break saved_x + saved_y <= depth (the kernel layer
  // derives table indices from them).
  saved_x_ = std::min(state.saved_x, config_.depth);
  saved_y_ = std::min(state.saved_y, config_.depth - saved_x_);
  save_from_x_ = state.save_from_x;
  remaining_ = state.remaining;
  length_known_ = state.length_known;
}

Desynchronizer::Transition Desynchronizer::transition(unsigned depth,
                                                      unsigned saved_x,
                                                      unsigned saved_y,
                                                      bool save_from_x, bool x,
                                                      bool y) {
  if (x != y) {
    return {saved_x, saved_y, save_from_x, x, y};  // already unpaired
  }
  if (x) {  // both 1: try to unpair by withholding one side's 1
    if (saved_x + saved_y < depth) {
      if (save_from_x) {
        return {saved_x + 1, saved_y, false, false, true};
      }
      return {saved_x, saved_y + 1, true, true, false};
    }
    return {saved_x, saved_y, save_from_x, true, true};  // saturated
  }
  // both 0: fill the gap with a saved 1 if available
  if (saved_x == 0 && saved_y == 0) {
    return {saved_x, saved_y, save_from_x, false, false};
  }
  // Emit from the fuller side; on a tie, from the side saved longest ago
  // (the opposite of the next donor).
  const bool emit_x = saved_x != saved_y ? (saved_x > saved_y) : !save_from_x;
  if (emit_x) {
    return {saved_x - 1, saved_y, save_from_x, true, false};
  }
  return {saved_x, saved_y - 1, save_from_x, false, true};
}

BitPair Desynchronizer::step(bool x, bool y) {
  // length_known_ (not remaining_ == 0) gates flushing — see Synchronizer.
  const bool force = config_.flush && length_known_ &&
                     static_cast<std::size_t>(saved_x_ + saved_y_) >= remaining_;
  if (remaining_ != 0) --remaining_;

  if (force) {
    // Emit saved 1s into any 0 slot; stop saving new bits.
    BitPair out{x, y};
    if (!out.x && saved_x_ > 0) {
      out.x = true;
      --saved_x_;
    }
    if (!out.y && saved_y_ > 0) {
      out.y = true;
      --saved_y_;
    }
    return out;
  }

  const Transition t =
      transition(config_.depth, saved_x_, saved_y_, save_from_x_, x, y);
  saved_x_ = t.saved_x;
  saved_y_ = t.saved_y;
  save_from_x_ = t.save_from_x;
  return BitPair{t.out_x, t.out_y};
}

}  // namespace sc::core
