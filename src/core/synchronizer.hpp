/// \file synchronizer.hpp
/// The paper's synchronizer (Fig. 3a): increases positive correlation
/// between two streams while preserving each stream's value.
///
/// Principle (paper §III-A): pair up 1s (and 0s) across the two inputs as
/// often as possible.  When the inputs agree they pass through.  When they
/// disagree, the lone 1 is "saved" in the FSM and a (0,0) pair is emitted;
/// when the opposite disagreement later arrives, the saved 1 is paired with
/// it and a (1,1) pair is emitted.
///
/// Generalization (paper §III-B): the FSM state is a signed credit
/// c in [-D, +D] where c > 0 counts saved unpaired X 1s and c < 0 counts
/// saved unpaired Y 1s; D is the *save depth*.  D = 1 reproduces the
/// three-state FSM of Fig. 3a exactly (S1 <=> c=+1, S0 <=> c=0,
/// S2 <=> c=-1).  When the credit saturates, disagreeing bits pass through
/// unmodified.
///
/// Saved bits still inside the FSM when the stream ends are lost, giving
/// each output a negative bias bounded by D/N.  The optional *flush* mode
/// (paper §III-B) tracks the remaining stream length and force-emits saved
/// bits (unpaired) when they could otherwise no longer drain, reducing the
/// bias to zero at the cost of slightly weaker final correlation and the
/// hardware to track the offset.

#pragma once

#include <cstddef>

#include "core/pair_transform.hpp"

namespace sc::kernel {
class PairNibbleTable;
}  // namespace sc::kernel

namespace sc::core {

/// Synchronizer FSM with save depth D (paper Fig. 3a for D = 1).
class Synchronizer final : public PairTransform {
 public:
  struct Config {
    /// Maximum number of unpaired bits saved per side (D >= 1; 0 makes
    /// the constructor throw std::invalid_argument).
    unsigned depth = 1;
    /// Enable end-of-stream flush (requires begin_stream() / apply()).
    bool flush = false;
    /// Starting credit (paper §III-B: "start with a saved X or Y bit by
    /// adjusting the initial state").  A preloaded +1 emits one extra X 1
    /// over the stream, offsetting the average stuck-bit loss when
    /// composing stages.  Clamped to [-depth, depth].
    int initial_credit = 0;
  };

  /// Result of one pure (non-flush) transition.
  struct Transition {
    int credit;
    bool out_x;
    bool out_y;
  };

  /// Pure non-flush step function: (credit, x, y) -> (credit', output pair).
  /// step() is this plus the flush bookkeeping; process() enumerates it
  /// over all credits and input pairs into its nibble table.
  static Transition transition(unsigned depth, int credit, bool x, bool y);

  Synchronizer() : Synchronizer(Config{}) {}
  explicit Synchronizer(Config config);

  BitPair step(bool x, bool y) override;
  /// Word path: the depth's shared nibble table (kernel/pair_table.hpp),
  /// four cycles per lookup, with step() for the flush window.  Depths
  /// past 2047 (2 depth + 1 credits exceed kernel::kMaxTableStates) step
  /// every cycle.
  void process(Word* x, Word* y, std::size_t bits) override;
  void reset() override;
  [[nodiscard]] unsigned saved_ones() const override;
  void begin_stream(std::size_t length) override;

  const Config& config() const { return config_; }
  /// Signed saved-bit credit: > 0 means saved X 1s, < 0 means saved Y 1s.
  [[nodiscard]] int credit() const { return credit_; }

 private:
  Config config_;
  int credit_ = 0;
  std::size_t remaining_ = 0;  // cycles left in the stream (flush mode)
  bool length_known_ = false;  // distinguishes "no length announced" from
                               // "announced length fully consumed"
  // Fetched on the first process(), not at construction: a circuit that
  // only steps never builds or locks the shared table.
  const kernel::PairNibbleTable* table_ = nullptr;
};

}  // namespace sc::core
