#include "kernel/apply.hpp"

namespace sc::kernel {

sc::StreamPair apply(core::PairTransform& transform, const Bitstream& x,
                     const Bitstream& y) {
  require_same_size("sc::kernel::apply", x.size(), y.size());
  sc::StreamPair out{x, y};
  transform.begin_stream(x.size());
  transform.process(out.x.word_data(), out.y.word_data(), x.size());
  return out;
}

void ChunkedPairApplier::begin(std::size_t total_length) {
  transform_->begin_stream(total_length);
}

void ChunkedPairApplier::advance(Bitstream& x, Bitstream& y) {
  require_same_size("sc::kernel::ChunkedPairApplier::advance", x.size(),
                    y.size());
  transform_->process(x.word_data(), y.word_data(), x.size());
}

}  // namespace sc::kernel
