#include "core/synchronizer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "kernel/pair_table.hpp"

namespace sc::core {

namespace {

/// Save depth as a non-negative int for credit clamping.  Depths beyond
/// INT_MAX saturate: a plain static_cast would yield a negative value
/// (and negating INT_MIN is UB), silently inverting the clamp range.
int credit_bound(unsigned depth) {
  return static_cast<int>(
      std::min<unsigned>(depth, std::numeric_limits<int>::max()));
}

/// The depth's shared nibble table (state index = credit + depth), or
/// nullptr past kernel::kMaxTableStates.
const kernel::PairNibbleTable* nibble_table(unsigned depth) {
  // Counted in 64 bits: a wrapped count would pass the cap and build an
  // undersized table.
  const std::uint64_t states = 2 * std::uint64_t{depth} + 1;
  if (states > kernel::kMaxTableStates) return nullptr;
  static kernel::TableCache<unsigned, kernel::PairNibbleTable> cache;
  return &cache.get(depth, [depth, states] {
    return kernel::PairNibbleTable::build(
        static_cast<unsigned>(states), [depth](unsigned s, bool x, bool y) {
          const auto offset = static_cast<int>(depth);
          const Synchronizer::Transition t = Synchronizer::transition(
              depth, static_cast<int>(s) - offset, x, y);
          return kernel::PairStep{static_cast<unsigned>(t.credit + offset),
                                  t.out_x, t.out_y};
        });
  });
}

}  // namespace

Synchronizer::Synchronizer(Config config) : config_(config) {
  if (config_.depth == 0) {
    throw std::invalid_argument("core::Synchronizer: depth must be >= 1");
  }
  const int depth = credit_bound(config_.depth);
  config_.initial_credit =
      std::clamp(config_.initial_credit, -depth, depth);
  credit_ = config_.initial_credit;
}

void Synchronizer::reset() {
  credit_ = config_.initial_credit;
  remaining_ = 0;
  length_known_ = false;
}

unsigned Synchronizer::saved_ones() const {
  return static_cast<unsigned>(std::abs(credit_));
}

void Synchronizer::begin_stream(std::size_t length) {
  credit_ = config_.initial_credit;
  remaining_ = length;
  length_known_ = true;
}

Synchronizer::Transition Synchronizer::transition(unsigned depth_bits,
                                                  int credit, bool x, bool y) {
  const int depth = credit_bound(depth_bits);
  if (x == y) {
    return {credit, x, y};  // already paired
  }
  if (x) {  // x = 1, y = 0
    if (credit < 0) {
      return {credit + 1, true, true};  // pair the X 1 with a saved Y 1
    }
    if (credit < depth) {
      return {credit + 1, false, false};  // save the unpaired X 1
    }
    return {credit, true, false};  // saturated: pass through
  }
  // x = 0, y = 1
  if (credit > 0) {
    return {credit - 1, true, true};  // pair the Y 1 with a saved X 1
  }
  if (credit > -depth) {
    return {credit - 1, false, false};  // save the unpaired Y 1
  }
  return {credit, false, true};  // saturated: pass through
}

BitPair Synchronizer::step(bool x, bool y) {
  // Flush mode: once the saved bits could no longer drain in the remaining
  // cycles, stop saving and force-emit saved 1s on idle (0) cycles.
  // length_known_ (not remaining_ == 0) gates flushing, so a stream driven
  // past its announced length keeps flush semantics instead of silently
  // reverting to the plain FSM; with no announced length flushing stays
  // disabled.
  const bool force =
      config_.flush && length_known_ &&
      static_cast<std::size_t>(std::abs(credit_)) >= remaining_;
  if (remaining_ != 0) --remaining_;

  if (force) {
    // A saved 1 (or the incoming 1 on the saturated side) is emitted every
    // cycle; the credit drains exactly on cycles where the input is 0.
    BitPair out{x, y};
    if (credit_ > 0) {
      out.x = true;
      if (!x) --credit_;
    } else if (credit_ < 0) {
      out.y = true;
      if (!y) ++credit_;
    }
    return out;
  }

  const Transition t = transition(config_.depth, credit_, x, y);
  credit_ = t.credit;
  return BitPair{t.out_x, t.out_y};
}

void Synchronizer::process(Word* x, Word* y, std::size_t bits) {
  if (table_ == nullptr) table_ = nibble_table(config_.depth);
  std::size_t done = 0;
  if (table_ != nullptr) {
    done = kernel::pre_flush_cycles(config_.flush && length_known_,
                                    remaining_, config_.depth, bits);
    const auto offset = static_cast<int>(config_.depth);
    credit_ = static_cast<int>(kernel::run_pair_table(
                  *table_, static_cast<unsigned>(credit_ + offset), x, y, x,
                  y, done)) -
              offset;
    remaining_ -= std::min(done, remaining_);
  }
  step_words(x, y, done, bits);
}

}  // namespace sc::core
