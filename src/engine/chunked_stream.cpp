#include "engine/chunked_stream.hpp"

#include <algorithm>
#include <stdexcept>

namespace sc::engine {

// --------------------------------------------------------------- sources

SngChunkSource::SngChunkSource(rng::RandomSourcePtr source,
                               std::uint64_t level, std::size_t length)
    : source_(std::move(source)), level_(level), length_(length) {
  if (source_ == nullptr) {
    throw std::invalid_argument("engine::SngChunkSource: null source");
  }
}

std::size_t SngChunkSource::next_chunk(Bitstream& chunk,
                                       std::size_t max_bits) {
  const std::size_t take = std::min(max_bits, length_ - produced_);
  chunk.assign_zero(take);  // reuses the buffer's capacity across chunks
  if (take != 0) {
    // One word-API call packs the whole chunk: bit i = (draw_i < level_).
    // The chunk is all-zero and the fill ORs only positions < take, so
    // the tail-clear invariant holds (fill_compare touches no bit >= take).
    source_->fill_compare(chunk.word_data(), take, level_);
  }
  produced_ += take;
  return take;
}

void SngChunkSource::reset() {
  source_->reset();
  produced_ = 0;
}

std::size_t BitstreamChunkSource::next_chunk(Bitstream& chunk,
                                             std::size_t max_bits) {
  const std::size_t take = std::min(max_bits, stream_->size() - position_);
  chunk.assign_zero(take);
  if (take != 0) {
    // Word-parallel shifted copy out of the backing stream.
    const std::vector<Bitstream::Word>& src = stream_->words();
    Bitstream::Word* dst = chunk.word_data();
    const std::size_t dst_words = (take + 63) / 64;
    const std::size_t word0 = position_ / 64;
    const auto off = static_cast<unsigned>(position_ % 64);
    if (off == 0) {
      for (std::size_t w = 0; w < dst_words; ++w) dst[w] = src[word0 + w];
    } else {
      for (std::size_t w = 0; w < dst_words; ++w) {
        Bitstream::Word bits = src[word0 + w] >> off;
        if (word0 + w + 1 < src.size()) {
          bits |= src[word0 + w + 1] << (64 - off);
        }
        dst[w] = bits;
      }
    }
    if (take % 64 != 0) {  // restore the tail-clear invariant
      dst[dst_words - 1] &= (Bitstream::Word{1} << (take % 64)) - 1;
    }
  }
  position_ += take;
  return take;
}

// ----------------------------------------------------------------- sinks

void ValueSink::consume(const Bitstream& chunk) {
  ones_ += chunk.count_ones();
  bits_ += chunk.size();
}

double ValueSink::value() const noexcept {
  return bits_ == 0 ? 0.0
                    : static_cast<double>(ones_) / static_cast<double>(bits_);
}

void CollectSink::consume(const Bitstream& chunk) {
  stream_.reserve(stream_.size() + chunk.size());
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    stream_.push_back(chunk.get(i));
  }
}

void PairStatsSink::consume(const Bitstream& chunk_x,
                            const Bitstream& chunk_y) {
  const OverlapCounts piece = overlap(chunk_x, chunk_y);
  counts_.a += piece.a;
  counts_.b += piece.b;
  counts_.c += piece.c;
  counts_.d += piece.d;
}

double PairStatsSink::value_x() const noexcept {
  const std::uint64_t n = counts_.n();
  return n == 0 ? 0.0
                : static_cast<double>(counts_.a + counts_.b) /
                      static_cast<double>(n);
}

double PairStatsSink::value_y() const noexcept {
  const std::uint64_t n = counts_.n();
  return n == 0 ? 0.0
                : static_cast<double>(counts_.a + counts_.c) /
                      static_cast<double>(n);
}

double PairStatsSink::scc() const { return sc::scc(counts_); }

void CollectPairSink::consume(const Bitstream& chunk_x,
                              const Bitstream& chunk_y) {
  x_.reserve(x_.size() + chunk_x.size());
  y_.reserve(y_.size() + chunk_y.size());
  for (std::size_t i = 0; i < chunk_x.size(); ++i) x_.push_back(chunk_x.get(i));
  for (std::size_t i = 0; i < chunk_y.size(); ++i) y_.push_back(chunk_y.get(i));
}

// --------------------------------------------------------------- drivers

ChunkedRunStats run_chunked(ChunkSource& source,
                            core::StreamTransform* transform, ChunkSink& sink,
                            std::size_t chunk_bits, KernelPolicy policy) {
  if (chunk_bits == 0) throw std::invalid_argument("chunk_bits must be > 0");

  ChunkedRunStats stats;
  if (transform != nullptr) transform->begin_stream(source.length());

  Bitstream chunk;
  while (source.next_chunk(chunk, chunk_bits) > 0) {
    if (transform != nullptr && policy == KernelPolicy::kAuto) {
      transform->process(chunk.word_data(), chunk.size());
    } else if (transform != nullptr) {
      transform->core::StreamTransform::process(chunk.word_data(),
                                                chunk.size());
    }
    stats.bits += chunk.size();
    ++stats.chunks;
    stats.peak_buffer_bits = std::max(stats.peak_buffer_bits, chunk.size());
    sink.consume(chunk);
  }
  return stats;
}

ChunkedRunStats run_chunked_pair(ChunkSource& source_x, ChunkSource& source_y,
                                 core::PairTransform* transform,
                                 PairChunkSink& sink,
                                 std::size_t chunk_bits, KernelPolicy policy) {
  if (chunk_bits == 0) throw std::invalid_argument("chunk_bits must be > 0");
  if (source_x.length() != source_y.length()) {
    throw std::invalid_argument("pair sources must have equal length");
  }

  ChunkedRunStats stats;
  if (transform != nullptr) transform->begin_stream(source_x.length());

  Bitstream chunk_x;
  Bitstream chunk_y;
  for (;;) {
    const std::size_t nx = source_x.next_chunk(chunk_x, chunk_bits);
    const std::size_t ny = source_y.next_chunk(chunk_y, chunk_bits);
    if (nx != ny) {
      // A short-reading source would shear the pair out of phase and feed
      // unequal chunks into word-parallel sinks; fail loudly instead.
      throw std::logic_error(
          "ChunkSource produced a short chunk; next_chunk must return "
          "exactly min(max_bits, remaining)");
    }
    if (nx == 0) break;
    if (transform != nullptr && policy == KernelPolicy::kAuto) {
      transform->process(chunk_x.word_data(), chunk_y.word_data(), nx);
    } else if (transform != nullptr) {
      transform->core::PairTransform::process(chunk_x.word_data(),
                                              chunk_y.word_data(), nx);
    }
    stats.bits += nx;
    ++stats.chunks;
    stats.peak_buffer_bits =
        std::max(stats.peak_buffer_bits, chunk_x.size() + chunk_y.size());
    sink.consume(chunk_x, chunk_y);
    (void)ny;
  }
  return stats;
}

}  // namespace sc::engine
