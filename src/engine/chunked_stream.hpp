/// \file chunked_stream.hpp
/// Block-wise bitstream processing: generate, transform, and reduce streams
/// in fixed word-chunks so arbitrarily long streams (2^24 bits and beyond)
/// never need full materialization.
///
/// The paper evaluates its circuits on 256-bit streams, but every circuit
/// is a per-cycle FSM: nothing in a synchronizer, desynchronizer,
/// decorrelator, or TFM requires the whole stream in memory.  This module
/// exploits that.  A `ChunkSource` produces the next chunk of bits on
/// demand, a `StreamTransform` / `PairTransform` FSM is driven across chunk
/// boundaries without reset (its state carries over, so the result is
/// bit-identical to a whole-stream `core::apply`), and a `ChunkSink`
/// reduces chunks as they appear (stream value, overlap/SCC statistics, or
/// full collection for tests).  Peak engine-side buffering is the chunk
/// buffers themselves — O(chunk), not O(stream).
///
/// FSM flush semantics are preserved: the driver calls begin_stream() once
/// with the *total* length before the first chunk, exactly as the
/// whole-stream helpers do, so length-tracking transforms (synchronizer
/// flush mode) behave identically under chunking.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bitstream/bitstream.hpp"
#include "bitstream/correlation.hpp"
#include "core/pair_transform.hpp"
#include "rng/random_source.hpp"

namespace sc::engine {

/// Default chunk size: 2^16 bits = 8 KiB per buffer, large enough to
/// amortize virtual dispatch, small enough to stay cache-resident.
inline constexpr std::size_t kDefaultChunkBits = std::size_t{1} << 16;

// --------------------------------------------------------------- sources

/// Produces a bitstream chunk-at-a-time.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Total bits this source will produce.
  [[nodiscard]] virtual std::size_t length() const = 0;

  /// Overwrites `chunk` with the next bits of the stream.  Contract: must
  /// produce *exactly* min(max_bits, bits remaining) bits — short reads
  /// are not allowed, so paired sources of equal length always stay in
  /// lockstep (run_chunked_pair enforces this).  Resizes `chunk` to the
  /// produced count and returns it (0 at end of stream).
  virtual std::size_t next_chunk(Bitstream& chunk, std::size_t max_bits) = 0;

  /// Rewinds to the beginning of the stream.
  virtual void reset() = 0;
};

/// Comparator-SNG source: bit i is (source.next() < level), the paper's
/// Fig. 2g generator, produced lazily so the stream never materializes.
/// Each chunk is packed by one RandomSource::fill_compare call, so
/// generation rides the source's word API (SIMD-packed block fills, which
/// an LFSR of up to 16 bits copies from its width's shared orbit table)
/// and keeps pace with the word-parallel kernels downstream.
class SngChunkSource final : public ChunkSource {
 public:
  /// \param source owned RNG (null throws std::invalid_argument);
  /// \param level in [0, 2^source->width()] —
  /// 64-bit so a width-32 source's full-scale level 2^32 does not wrap
  /// (same class of bug as Sng::natural_length_);
  /// \param length total bits to produce.
  SngChunkSource(rng::RandomSourcePtr source, std::uint64_t level,
                 std::size_t length);

  [[nodiscard]] std::size_t length() const override { return length_; }
  std::size_t next_chunk(Bitstream& chunk, std::size_t max_bits) override;
  void reset() override;

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t level_;
  std::size_t length_;
  std::size_t produced_ = 0;
};

/// Non-owning view of an in-memory stream, chunked (reference path for
/// equivalence tests).  The referenced stream must outlive the source.
class BitstreamChunkSource final : public ChunkSource {
 public:
  explicit BitstreamChunkSource(const Bitstream& stream) : stream_(&stream) {}

  [[nodiscard]] std::size_t length() const override { return stream_->size(); }
  std::size_t next_chunk(Bitstream& chunk, std::size_t max_bits) override;
  void reset() override { position_ = 0; }

 private:
  const Bitstream* stream_;
  std::size_t position_ = 0;
};

// ----------------------------------------------------------------- sinks

/// Consumes chunks of a single output stream.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;
  virtual void consume(const Bitstream& chunk) = 0;
};

/// O(1)-memory reduction to the stream value: ones and bit count.
class ValueSink final : public ChunkSink {
 public:
  void consume(const Bitstream& chunk) override;

  [[nodiscard]] std::uint64_t ones() const noexcept { return ones_; }
  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }
  /// Unipolar value of the reduced stream (0 for an empty stream).
  [[nodiscard]] double value() const noexcept;

 private:
  std::uint64_t ones_ = 0;
  std::uint64_t bits_ = 0;
};

/// Materializes the full stream (tests / small streams only).
class CollectSink final : public ChunkSink {
 public:
  void consume(const Bitstream& chunk) override;
  const Bitstream& stream() const noexcept { return stream_; }

 private:
  Bitstream stream_;
};

/// Consumes chunk pairs of a two-output transform.
class PairChunkSink {
 public:
  virtual ~PairChunkSink() = default;
  virtual void consume(const Bitstream& chunk_x, const Bitstream& chunk_y) = 0;
};

/// O(1)-memory joint statistics: per-stream values plus the 2x2 overlap
/// counts, from which SCC is computed exactly as the whole-stream metric
/// does — correlation measurement without materialization.
class PairStatsSink final : public PairChunkSink {
 public:
  void consume(const Bitstream& chunk_x, const Bitstream& chunk_y) override;

  const OverlapCounts& counts() const noexcept { return counts_; }
  [[nodiscard]] double value_x() const noexcept;
  [[nodiscard]] double value_y() const noexcept;
  /// SCC of the streams seen so far (0 while degenerate).
  [[nodiscard]] double scc() const;

 private:
  OverlapCounts counts_;
};

/// Materializes both output streams (tests only).
class CollectPairSink final : public PairChunkSink {
 public:
  void consume(const Bitstream& chunk_x, const Bitstream& chunk_y) override;
  const Bitstream& stream_x() const noexcept { return x_; }
  const Bitstream& stream_y() const noexcept { return y_; }

 private:
  Bitstream x_;
  Bitstream y_;
};

// --------------------------------------------------------------- drivers

/// Accounting of one chunked run, including the proof obligation that
/// engine-side buffering stayed bounded by the chunk size.
struct ChunkedRunStats {
  std::size_t bits = 0;              ///< total bits processed per stream
  std::size_t chunks = 0;            ///< number of chunks
  std::size_t peak_buffer_bits = 0;  ///< high-water mark of live chunk buffers
};

/// How the drivers advance the FSM across each chunk.
enum class KernelPolicy {
  /// The transform's process() override (its table-driven or
  /// word-parallel path) where it has one, step() per cycle otherwise.
  /// Output is bit-identical either way; this is the default.
  kAuto,
  /// Always the base process(): one virtual step() per cycle — the
  /// reference implementation, kept selectable for differential tests
  /// and benchmarks.
  kSerial,
};

/// Streams `source` through an optional per-cycle FSM into `sink`,
/// chunk-at-a-time.  Passing nullptr for `transform` reduces the source
/// directly.  The FSM is *not* reset: like core::apply, the caller controls
/// initial state; begin_stream(total) is issued before the first chunk.
ChunkedRunStats run_chunked(ChunkSource& source,
                            core::StreamTransform* transform, ChunkSink& sink,
                            std::size_t chunk_bits = kDefaultChunkBits,
                            KernelPolicy policy = KernelPolicy::kAuto);

/// Pair version: streams two sources through a PairTransform FSM into a
/// pair sink.  Sources must have equal length.
ChunkedRunStats run_chunked_pair(ChunkSource& source_x, ChunkSource& source_y,
                                 core::PairTransform* transform,
                                 PairChunkSink& sink,
                                 std::size_t chunk_bits = kDefaultChunkBits,
                                 KernelPolicy policy = KernelPolicy::kAuto);

}  // namespace sc::engine
