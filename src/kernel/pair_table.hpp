/// \file pair_table.hpp
/// Multi-bit transition tables for pair FSMs with small state spaces.
///
/// A PairNibbleTable precomputes, for every (state, 4 input bit-pairs)
/// combination, the 4 output bit-pairs and the state four cycles later, so
/// a byte of each stream advances with two table lookups instead of eight
/// virtual step() calls.  A companion one-cycle table handles lengths that
/// are not a multiple of 4.  Tables are built once per FSM configuration
/// from the pure transition functions the core and operator layers expose
/// (e.g. core::Synchronizer::transition, arith::Cordiv::transition) and
/// shared, one per configuration, by every word path of that FSM
/// (TableCache).  run_pair_table is the one word loop over them: the
/// synchronizer's and desynchronizer's process() run it in place, the
/// graph layer's FSM evaluators run it from operand words into an output
/// stream.
///
/// Entry layout (std::uint32_t):
///   bits 0..3   output X nibble (bit i = cycle i's X output)
///   bits 4..7   output Y nibble
///   bits 8..31  successor state index
/// The one-cycle table uses the same layout with single-bit nibbles.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace sc::kernel {

/// Largest state count the pair FSMs table: the nibble table is
/// states * 1 KiB, so the cap bounds one table at 4 MiB.  Configurations
/// past it run their bit-serial step().
constexpr unsigned kMaxTableStates = 4096;

/// One pure pair-FSM step, as the table builder consumes it.
struct PairStep {
  unsigned next_state;
  bool out_x;
  bool out_y;
};

/// Four-cycle (nibble) and one-cycle transition tables over S states.
class PairNibbleTable {
 public:
  using Entry = std::uint32_t;

  /// Builds the tables by enumerating `step` (a callable mapping
  /// (state, x, y) to PairStep) over all states and input combinations.
  template <typename StepFn>
  static PairNibbleTable build(unsigned states, StepFn&& step) {
    PairNibbleTable table;
    table.states_ = states;
    table.nibble_.resize(std::size_t{states} << 8);
    table.bit_.resize(std::size_t{states} << 2);
    for (unsigned s = 0; s < states; ++s) {
      for (unsigned xn = 0; xn < 16; ++xn) {
        for (unsigned yn = 0; yn < 16; ++yn) {
          unsigned cur = s;
          unsigned out_x = 0;
          unsigned out_y = 0;
          for (unsigned i = 0; i < 4; ++i) {
            const PairStep r =
                step(cur, ((xn >> i) & 1u) != 0, ((yn >> i) & 1u) != 0);
            out_x |= (r.out_x ? 1u : 0u) << i;
            out_y |= (r.out_y ? 1u : 0u) << i;
            cur = r.next_state;
          }
          table.nibble_[(std::size_t{s} << 8) | (xn << 4) | yn] =
              out_x | (out_y << 4) | (cur << 8);
        }
      }
      for (unsigned x = 0; x < 2; ++x) {
        for (unsigned y = 0; y < 2; ++y) {
          const PairStep r = step(s, x != 0, y != 0);
          table.bit_[(std::size_t{s} << 2) | (x << 1) | y] =
              (r.out_x ? 1u : 0u) | ((r.out_y ? 1u : 0u) << 4) |
              (r.next_state << 8);
        }
      }
    }
    return table;
  }

  /// Advances 4 cycles: inputs are a nibble of each stream.
  [[nodiscard]] Entry lookup4(unsigned state, unsigned x_nibble, unsigned y_nibble) const {
    return nibble_[(std::size_t{state} << 8) | (x_nibble << 4) | y_nibble];
  }

  /// Advances 1 cycle (same entry layout, single-bit nibbles).
  [[nodiscard]] Entry lookup1(unsigned state, bool x, bool y) const {
    return bit_[(std::size_t{state} << 2) | (x ? 2u : 0u) | (y ? 1u : 0u)];
  }

  [[nodiscard]] unsigned states() const { return states_; }

 private:
  unsigned states_ = 0;
  std::vector<Entry> nibble_;  // states * 256 four-cycle entries
  std::vector<Entry> bit_;     // states * 4 one-cycle entries
};

/// Process-wide memo of immutable tables, one per key, built on first
/// request and never evicted, so returned references stay valid for the
/// process lifetime.
template <typename Key, typename Table>
class TableCache {
 public:
  template <typename BuildFn>
  const Table& get(const Key& key, BuildFn&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tables_.find(key);
    if (it == tables_.end()) it = tables_.emplace(key, build()).first;
    return it->second;
  }

 private:
  std::mutex mutex_;
  std::map<Key, Table> tables_;
};

/// How many of the next `bits` cycles a flush-capable pair FSM may run
/// through its (non-flush) table.  The force condition needs saved bits
/// >= remaining cycles and at most `depth` bits are ever saved, so it
/// cannot fire while more than `depth` announced cycles remain; the
/// cycles from there on go to step().
inline std::size_t pre_flush_cycles(bool flushing, std::size_t remaining,
                                    unsigned depth, std::size_t bits) {
  if (!flushing) return bits;
  return remaining > depth ? std::min(bits, remaining - depth) : 0;
}

/// Advances `bits` cycles through a nibble table from `state`, reading
/// packed input words and writing packed output words (bit i at word i/64,
/// bit i%64).  Outputs may alias their inputs (in-place), and `y_out` may
/// be null for FSMs whose Y output lane is unused.  Output bits at
/// positions >= `bits` in the final word are preserved.  Returns the
/// successor state.
unsigned run_pair_table(const PairNibbleTable& table, unsigned state,
                        const std::uint64_t* x_in, const std::uint64_t* y_in,
                        std::uint64_t* x_out, std::uint64_t* y_out,
                        std::size_t bits);

}  // namespace sc::kernel
