#include "core/desynchronizer.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "kernel/pair_table.hpp"

namespace sc::core {

namespace {

/// The depth's shared nibble table, or nullptr past
/// kernel::kMaxTableStates.  State index =
/// ((saved_x * (depth + 1) + saved_y) << 1) | save_from_x; combinations
/// with saved_x + saved_y > depth are encodable but unreachable, and the
/// pure transition is total over them regardless.
const kernel::PairNibbleTable* nibble_table(unsigned depth) {
  const std::uint64_t side = std::uint64_t{depth} + 1;
  const std::uint64_t states = 2 * side * side;  // 64-bit: no wrap past cap
  if (states > kernel::kMaxTableStates) return nullptr;
  static kernel::TableCache<unsigned, kernel::PairNibbleTable> cache;
  return &cache.get(depth, [depth, side, states] {
    const auto side32 = static_cast<unsigned>(side);
    return kernel::PairNibbleTable::build(
        static_cast<unsigned>(states),
        [depth, side32](unsigned s, bool x, bool y) {
          const unsigned pair = s >> 1;
          const Desynchronizer::Transition t = Desynchronizer::transition(
              depth, pair / side32, pair % side32, (s & 1u) != 0, x, y);
          return kernel::PairStep{((t.saved_x * side32 + t.saved_y) << 1) |
                                      (t.save_from_x ? 1u : 0u),
                                  t.out_x, t.out_y};
        });
  });
}

}  // namespace

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

void Desynchronizer::process(Word* x, Word* y, std::size_t bits) {
  if (table_ == nullptr) table_ = nibble_table(config_.depth);
  std::size_t done = 0;
  if (table_ != nullptr) {
    done = kernel::pre_flush_cycles(config_.flush && length_known_,
                                    remaining_, config_.depth, bits);
    const unsigned side = config_.depth + 1;
    const unsigned state = kernel::run_pair_table(
        *table_,
        ((saved_x_ * side + saved_y_) << 1) | (save_from_x_ ? 1u : 0u), x, y,
        x, y, done);
    saved_x_ = (state >> 1) / side;
    saved_y_ = (state >> 1) % side;
    save_from_x_ = (state & 1u) != 0;
    remaining_ -= std::min(done, remaining_);
  }
  step_words(x, y, done, bits);
}

}  // namespace sc::core
