/// \file pair_transform.hpp
/// Per-cycle interfaces for correlation manipulating circuits.
///
/// All of the paper's circuits are small sequential machines that consume
/// one bit (or one bit pair) per clock and emit one bit (pair) per clock
/// with zero latency.  PairTransform is the two-stream interface
/// (synchronizer, desynchronizer, decorrelator, isolator pair, TFM pair);
/// StreamTransform is the single-stream interface (shuffle buffer, delay
/// line, single TFM).
///
/// step() is the reference semantics.  process() advances packed words;
/// its base implementation loops step() and is the bit-serial oracle, and
/// circuits with a word path (table-driven or word-parallel) override it
/// bit-identically.
///
/// The whole-stream helpers `apply(...)` run a transform over packed
/// bitstreams through its virtual process(), so every caller gets the
/// circuit's own datapath.

#pragma once

#include <cstddef>
#include <utility>

#include "bitstream/bitstream.hpp"
#include "bitstream/synthesis.hpp"

namespace sc::core {

/// One output bit pair per cycle.
struct BitPair {
  bool x = false;
  bool y = false;
};

/// Stateful transform of a pair of streams, one bit pair per cycle.
class PairTransform {
 public:
  using Word = Bitstream::Word;

  virtual ~PairTransform() = default;

  /// Consumes the cycle's input bits, produces the cycle's output bits.
  virtual BitPair step(bool x, bool y) = 0;

  /// Transforms the next `bits` cycles in place over packed words (cycle
  /// i at word i / 64, bit i % 64); bits at positions >= `bits` in the
  /// final word are preserved.  State carries across calls and mixes
  /// freely with step().  The base implementation steps every cycle and
  /// is the reference: callers that want it call `PairTransform::process`
  /// non-virtually, and overrides must match it bit for bit.
  virtual void process(Word* x, Word* y, std::size_t bits) {
    step_words(x, y, 0, bits);
  }

  /// Returns to the initial state.
  virtual void reset() = 0;

  /// Number of 1-bits currently held inside the transform (bits consumed
  /// but not yet re-emitted).  Used to reason about end-of-stream bias:
  /// value deviation of each output stream is bounded by saved_ones()/N.
  [[nodiscard]] virtual unsigned saved_ones() const { return 0; }

  /// Informs the transform of the total stream length before a run.
  /// Transforms with end-of-stream flush behaviour (synchronizer /
  /// desynchronizer with Config::flush) use it; others ignore it.
  virtual void begin_stream(std::size_t /*length*/) {}

 protected:
  /// Steps cycles [first, last) of packed words in place.
  void step_words(Word* x, Word* y, std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      Word& xw = x[i / 64];
      Word& yw = y[i / 64];
      const Word m = Word{1} << (i % 64);
      const BitPair out = step((xw & m) != 0, (yw & m) != 0);
      xw = out.x ? xw | m : xw & ~m;
      yw = out.y ? yw | m : yw & ~m;
    }
  }
};

/// Stateful transform of a single stream, one bit per cycle.
class StreamTransform {
 public:
  using Word = Bitstream::Word;

  virtual ~StreamTransform() = default;
  virtual bool step(bool in) = 0;
  /// Single-stream PairTransform::process: steps every cycle by default.
  virtual void process(Word* x, std::size_t bits) {
    for (std::size_t i = 0; i < bits; ++i) {
      Word& w = x[i / 64];
      const Word m = Word{1} << (i % 64);
      w = step((w & m) != 0) ? w | m : w & ~m;
    }
  }
  virtual void reset() = 0;
  [[nodiscard]] virtual unsigned saved_ones() const { return 0; }
  virtual void begin_stream(std::size_t /*length*/) {}
};

/// Runs a pair transform over two equal-length streams (unequal lengths
/// throw std::invalid_argument): begin_stream(), then the circuit's own
/// process(), its word path where it has one.  Does not reset first.
inline sc::StreamPair apply(PairTransform& transform, const Bitstream& x,
                            const Bitstream& y) {
  require_same_size("sc::core::apply", x.size(), y.size());
  sc::StreamPair out{x, y};
  transform.begin_stream(x.size());
  transform.process(out.x.word_data(), out.y.word_data(), x.size());
  return out;
}

/// Runs a single-stream transform over a stream through its process().
inline Bitstream apply(StreamTransform& transform, const Bitstream& x) {
  Bitstream out = x;
  transform.begin_stream(x.size());
  transform.process(out.word_data(), x.size());
  return out;
}

inline sc::StreamPair apply(PairTransform& transform,
                            const sc::StreamPair& in) {
  return apply(transform, in.x, in.y);
}

}  // namespace sc::core
