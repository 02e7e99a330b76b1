/// \file chunked_stream.hpp
/// Chunk-at-a-time stream generation for the executor's chunked runs.
///
/// The paper evaluates its circuits on 256-bit streams, but every circuit
/// is a per-cycle FSM: nothing in a synchronizer, desynchronizer,
/// decorrelator, or TFM requires the whole stream in memory.  The
/// executor (graph/backend.cpp) exploits that: it packs each source's
/// next chunk with an `SngChunkSource` and advances every circuit's
/// process() over it without reset, after one begin_stream() with the
/// total length (so flush modes count down the whole stream).  State
/// carries across chunk boundaries and the result is bit-identical to a
/// whole-stream run.  Peak buffering is the chunk buffers themselves —
/// O(chunk), not O(stream) — and a run reports it in `ChunkedRunStats`.

#pragma once

#include <cstddef>
#include <cstdint>

#include "bitstream/bitstream.hpp"
#include "rng/random_source.hpp"

namespace sc::engine {

/// Default chunk size: 2^16 bits = 8 KiB per buffer, large enough to
/// amortize virtual dispatch, small enough to stay cache-resident.
inline constexpr std::size_t kDefaultChunkBits = std::size_t{1} << 16;

/// Comparator-SNG source: bit i is (source.next() < level), the paper's
/// Fig. 2g generator, produced lazily so the stream never materializes.
/// Each chunk is packed by one RandomSource::fill_compare call, so
/// generation rides the source's word API (SIMD-packed block fills, which
/// an LFSR of up to 16 bits copies from its width's shared orbit table)
/// and keeps pace with the word-parallel kernels downstream.
class SngChunkSource {
 public:
  /// \param source owned RNG (null throws std::invalid_argument);
  /// \param level in [0, 2^source->width()] —
  /// 64-bit so a width-32 source's full-scale level 2^32 does not wrap
  /// (same class of bug as Sng::natural_length_);
  /// \param length total bits to produce.
  SngChunkSource(rng::RandomSourcePtr source, std::uint64_t level,
                 std::size_t length);

  /// Overwrites `chunk` with the next min(max_bits, bits remaining) bits
  /// of the stream, resizing it to that count, and returns the count (0
  /// at end of stream).
  std::size_t next_chunk(Bitstream& chunk, std::size_t max_bits);

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t level_;
  std::size_t length_;
  std::size_t produced_ = 0;
};

/// Accounting of one chunked run, including the proof obligation that
/// engine-side buffering stayed bounded by the chunk size.
struct ChunkedRunStats {
  std::size_t bits = 0;              ///< total bits processed per stream
  std::size_t chunks = 0;            ///< number of chunks
  std::size_t peak_buffer_bits = 0;  ///< high-water mark of live chunk buffers
};

}  // namespace sc::engine
