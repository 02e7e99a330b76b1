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
/// Whole-stream helpers `apply(...)` run a transform over packed bitstreams
/// and are the forms tests and benchmarks use.

#pragma once

#include <cassert>
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
  virtual ~PairTransform() = default;

  /// Consumes the cycle's input bits, produces the cycle's output bits.
  virtual BitPair step(bool x, bool y) = 0;

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
};

/// Stateful transform of a single stream, one bit per cycle.
class StreamTransform {
 public:
  virtual ~StreamTransform() = default;
  virtual bool step(bool in) = 0;
  virtual void reset() = 0;
  [[nodiscard]] virtual unsigned saved_ones() const { return 0; }
  virtual void begin_stream(std::size_t /*length*/) {}
};

/// Runs a pair transform over two equal-length streams.
/// Calls begin_stream(), then steps every cycle.  Does not reset first.
inline sc::StreamPair apply(PairTransform& transform, const Bitstream& x,
                            const Bitstream& y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  sc::StreamPair out{Bitstream(n), Bitstream(n)};
  transform.begin_stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BitPair bits = transform.step(x.get(i), y.get(i));
    if (bits.x) out.x.set(i, true);
    if (bits.y) out.y.set(i, true);
  }
  return out;
}

/// Runs a single-stream transform over a stream.
inline Bitstream apply(StreamTransform& transform, const Bitstream& x) {
  const std::size_t n = x.size();
  Bitstream out(n);
  transform.begin_stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (transform.step(x.get(i))) out.set(i, true);
  }
  return out;
}

inline sc::StreamPair apply(PairTransform& transform,
                            const sc::StreamPair& in) {
  return apply(transform, in.x, in.y);
}

}  // namespace sc::core
