/// \file desynchronizer.hpp
/// The paper's desynchronizer (Fig. 3b): increases *negative* correlation
/// between two streams while preserving each stream's value.
///
/// Principle (paper §III-A): deliberately un-pair bits.  When both inputs
/// are 1, one of the two 1s is saved in the FSM and a (1,0)/(0,1) pair is
/// emitted; when both inputs are later 0, a saved 1 is emitted to fill the
/// gap.  Differing inputs are already unpaired and pass through.
///
/// At save depth D = 1 this is exactly the paper's four-state cycle:
///   S0 (empty, next save from X) --(1,1): emit (0,1), save X--> S1
///   S1 (X 1 saved)               --(0,0): emit (1,0)---------> S3
///   S3 (empty, next save from Y) --(1,1): emit (1,0), save Y--> S2
///   S2 (Y 1 saved)               --(0,0): emit (0,1)---------> S0
/// with pass-through self-loops on X^Y = 1 everywhere, (0,0) self-loops on
/// the empty states and (1,1) self-loops on the full states.  Alternating
/// which side donates the saved bit keeps the two output values balanced.
///
/// The generalization to depth D keeps per-side saved-1 counters (total at
/// most D) and the same alternation rule.  Saved bits remaining at stream
/// end bias the *donor* stream low by up to D/N; optional flush mode
/// force-emits them near the end exactly as in the synchronizer.

#pragma once

#include <cstddef>

#include "core/pair_transform.hpp"

namespace sc::kernel {
class PairNibbleTable;
}  // namespace sc::kernel

namespace sc::core {

/// Desynchronizer FSM with save depth D (paper Fig. 3b for D = 1).
class Desynchronizer final : public PairTransform {
 public:
  struct Config {
    /// Maximum number of saved 1s held at once (D >= 1, across both sides;
    /// 0 makes the constructor throw std::invalid_argument).
    unsigned depth = 1;
    /// Enable end-of-stream flush (requires begin_stream() / apply()).
    bool flush = false;
    /// Which side donates the first saved bit (paper §III-B initial-state
    /// adjustment; alternating it across composed stages balances the
    /// residual bias between the two outputs).
    bool prefer_x_first = true;
  };

  /// Result of one pure (non-flush) transition.
  struct Transition {
    unsigned saved_x;
    unsigned saved_y;
    bool save_from_x;
    bool out_x;
    bool out_y;
  };

  /// Pure non-flush step function: maps (saved counters, alternation
  /// flag, input pair) to the successor state and output pair.  step() is
  /// this plus the flush bookkeeping; process() enumerates it into its
  /// nibble table.
  static Transition transition(unsigned depth, unsigned saved_x,
                               unsigned saved_y, bool save_from_x, bool x,
                               bool y);

  Desynchronizer() : Desynchronizer(Config{}) {}
  explicit Desynchronizer(Config config);

  BitPair step(bool x, bool y) override;
  /// Word path: the depth's shared nibble table, as in the synchronizer.
  /// The state count is 2 (depth + 1)^2, so depths past 44 step every
  /// cycle.
  void process(Word* x, Word* y, std::size_t bits) override;
  void reset() override;
  [[nodiscard]] unsigned saved_ones() const override { return saved_x_ + saved_y_; }
  void begin_stream(std::size_t length) override;

  const Config& config() const { return config_; }
  [[nodiscard]] unsigned saved_x() const { return saved_x_; }
  [[nodiscard]] unsigned saved_y() const { return saved_y_; }

 private:
  Config config_;
  unsigned saved_x_ = 0;   // 1s withheld from output X
  unsigned saved_y_ = 0;   // 1s withheld from output Y
  bool save_from_x_ = true;  // alternation: which side donates next
  std::size_t remaining_ = 0;
  bool length_known_ = false;  // distinguishes "no length announced" from
                               // "announced length fully consumed"
  const kernel::PairNibbleTable* table_ = nullptr;  // first process()
};

}  // namespace sc::core
