/// \file apply.hpp
/// Names the whole-stream helper in the kernel namespace, plus a chunked
/// driver for a pair transform.
///
/// `kernel::apply` is core::apply, which runs each circuit's own
/// process() (its table-driven or word-parallel path where it has one).
/// The benchmark's traced replay (scbench/src/trace.cpp) calls both names
/// in this header.

#pragma once

#include <cstddef>

#include "bitstream/bitstream.hpp"
#include "core/pair_transform.hpp"

namespace sc::kernel {

using core::apply;

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
