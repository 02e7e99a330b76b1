/// \file apply.hpp
/// Whole-stream and chunked helpers that run the circuits' word paths.
///
/// Same signature and begin_stream-then-run semantics as the core::apply
/// pair helpers, bit-identical output.  core::apply calls the bit-serial
/// reference `PairTransform::process` non-virtually; these make the
/// virtual call, so each circuit runs its own process() override
/// (table-driven or word-parallel) and transforms without one step every
/// cycle.

#pragma once

#include <cstddef>

#include "bitstream/bitstream.hpp"
#include "bitstream/synthesis.hpp"
#include "core/pair_transform.hpp"

namespace sc::kernel {

/// Runs a pair transform over two equal-length streams (see core::apply).
sc::StreamPair apply(core::PairTransform& transform, const Bitstream& x,
                     const Bitstream& y);

/// Drives a PairTransform across consecutive chunks of one logical stream
/// pair without ever materializing it: begin() announces the total length
/// (exactly as the whole-stream helpers do), advance() transforms each
/// chunk pair in place with state carrying across calls.  Output is
/// bit-identical to a whole-stream apply over the concatenated chunks.
class ChunkedPairApplier {
 public:
  explicit ChunkedPairApplier(core::PairTransform& transform)
      : transform_(&transform) {}

  void begin(std::size_t total_length);
  void advance(Bitstream& x, Bitstream& y);
  /// The transform already holds its state; nothing is left to do.
  void finish() {}

 private:
  core::PairTransform* transform_;
};

}  // namespace sc::kernel
