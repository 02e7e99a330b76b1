#include "kernel/apply.hpp"

namespace sc::kernel {

void ChunkedPairApplier::begin(std::size_t total_length) {
  transform_->begin_stream(total_length);
}

void ChunkedPairApplier::advance(Bitstream& x, Bitstream& y) {
  require_same_size("sc::kernel::ChunkedPairApplier::advance", x.size(),
                    y.size());
  transform_->process(x.word_data(), y.word_data(), x.size());
}

}  // namespace sc::kernel
