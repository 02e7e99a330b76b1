#include "engine/chunked_stream.hpp"

#include <algorithm>
#include <stdexcept>

namespace sc::engine {

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

}  // namespace sc::engine
