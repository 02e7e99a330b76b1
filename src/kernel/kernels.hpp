/// \file kernels.hpp
/// Table-driven multi-bit kernels for the correlation manipulating FSMs.
///
/// Every circuit in the paper is a per-cycle FSM, and the bit-serial
/// PairTransform/StreamTransform interfaces pay a virtual dispatch (plus
/// bit get/set) per cycle.  For long streams that dispatch, not memory
/// bandwidth, bounds throughput.  The kernels here advance packed words
/// directly:
///
///  * Synchronizer / Desynchronizer: state spaces are depth-bounded
///    counters, so a (state, 4 input bit-pairs) -> (state', 4 output
///    bit-pairs) table (pair_table.hpp) advances a byte of each stream
///    with two lookups.  In flush mode the force condition can only fire
///    within the final `depth` announced cycles (|saved bits| <= depth),
///    so the kernel runs the table up to that window and hands the tail to
///    the bit-serial FSM — output stays bit-identical.
///  * Shuffle buffer, decorrelator, chain link: a buffer's occupancy is a
///    <= 64-bit slot mask.  Address draws come pre-reduced a block at a
///    time from the buffer's own source (RandomSource::fill_indices), and
///    whole words advance through the SIMD shim's slot-class shuffle
///    (simd::shuffle_words).  A decorrelator is two independent buffers,
///    so it runs two single-buffer kernels.
///  * TFM: the fixed-point estimate is the whole state.  A nibble-jump
///    table advances four estimate updates per lookup into a trace, and
///    the output regenerates a word at a time as (aux draw < trace entry)
///    through the aux source's word API (fill_compare_trace).  The pair
///    kernel walks both estimate chains in one fused loop.
///
/// A kernel is compiled *for the current state* of a live transform by
/// make_pair_kernel / make_stream_kernel: it reads the FSM state at
/// creation, advances it privately (drawing from the transform's own RNG
/// sources so sequence positions stay shared), and writes the final state
/// back on finish().  Between creation and finish() the wrapped transform
/// must not be stepped directly.  Transforms without a kernel return
/// nullptr and callers fall back to the bit-serial path; results are
/// bit-identical either way (enforced by tests/kernel_test.cpp).

#pragma once

#include <cstddef>
#include <memory>

#include "bitstream/bitstream.hpp"
#include "core/pair_transform.hpp"

namespace sc::kernel {

/// Word-level driver of a two-stream FSM.
class PairKernel {
 public:
  virtual ~PairKernel() = default;

  /// Transforms the next `bits` cycles in place over packed words.
  /// Bits at positions >= `bits` in the final word are preserved.
  virtual void process(Bitstream::Word* x, Bitstream::Word* y,
                       std::size_t bits) = 0;

  /// Writes the kernel's state back into the wrapped transform so
  /// bit-serial execution can continue exactly where the kernel stopped.
  virtual void finish() = 0;
};

/// Word-level driver of a single-stream FSM.
class StreamKernel {
 public:
  virtual ~StreamKernel() = default;
  virtual void process(Bitstream::Word* x, std::size_t bits) = 0;
  virtual void finish() = 0;
};

/// Compiles a kernel for the transform's exact current state, or returns
/// nullptr when the concrete type/configuration has no table-driven path.
/// Supported: core::Synchronizer, core::Desynchronizer, core::Decorrelator
/// and core::DecorrelatorChainLink (buffer depth <= 64), core::TfmPair
/// (precision <= 8).
std::unique_ptr<PairKernel> make_pair_kernel(core::PairTransform& transform);

/// Single-stream version.  Supported: core::ShuffleBuffer (depth <= 64),
/// core::TrackingForecastMemory (precision <= 8).
std::unique_ptr<StreamKernel> make_stream_kernel(
    core::StreamTransform& transform);

}  // namespace sc::kernel
