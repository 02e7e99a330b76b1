/// \file decorrelator.hpp
/// The paper's decorrelator (Fig. 4a): two shuffle buffers with *different*
/// auxiliary RNGs, one per stream, driving SCC toward 0.
///
/// Because each stream's bits are permuted by an independent random
/// schedule, the joint overlap statistics approach the independence point
/// a = N pX pY while both values are preserved (up to buffer-resident
/// bits).  Deeper buffers scramble across longer windows and reach lower
/// |SCC|; decorrelators can also be composed in series (paper §III-C).

#pragma once

#include <cstddef>

#include "core/pair_transform.hpp"
#include "core/shuffle_buffer.hpp"
#include "rng/random_source.hpp"

namespace sc::core {

/// Two independent shuffle buffers as a pair transform.
class Decorrelator final : public PairTransform {
 public:
  /// \param depth     slots per shuffle buffer
  /// \param source_x  address source for the X buffer; owned
  /// \param source_y  address source for the Y buffer; owned (must differ
  ///                  from source_x in sequence, or the buffers shuffle in
  ///                  lockstep and correlation survives)
  Decorrelator(std::size_t depth, rng::RandomSourcePtr source_x,
               rng::RandomSourcePtr source_y);

  BitPair step(bool x, bool y) override;
  /// The buffers are independent (separate sources and slots), so each
  /// stream runs its own buffer's word path.
  void process(Word* x, Word* y, std::size_t bits) override;
  void reset() override;
  [[nodiscard]] unsigned saved_ones() const override;

  [[nodiscard]] std::size_t depth() const { return buffer_x_.depth(); }

 private:
  ShuffleBuffer buffer_x_;
  ShuffleBuffer buffer_y_;
};

/// One link of the paper's series-composed decorrelator chain (§III-C):
/// X passes through untouched and Y is emitted as shuffle(X) — the Y
/// input is ignored, so the link is only meaningful when both inputs
/// carry the *same* stream (a same-source copy group, where it preserves
/// Y's value by construction).  Chaining k-1 links over k copies makes
/// copy j the composition of j independent shuffles of copy 0, so every
/// copy pair decorrelates with one single-buffer circuit per link
/// instead of the planner's pairwise two-buffer decorrelators — the
/// rewrite opt::chain_decorrelators proposes.
class DecorrelatorChainLink final : public PairTransform {
 public:
  /// \param depth   slots of the link's shuffle buffer
  /// \param source  address source; owned
  DecorrelatorChainLink(std::size_t depth, rng::RandomSourcePtr source);

  BitPair step(bool x, bool y) override;
  /// Copies x's bits into y (y's bits past `bits` kept), then runs the
  /// buffer's word path over y.
  void process(Word* x, Word* y, std::size_t bits) override;
  void reset() override;
  [[nodiscard]] unsigned saved_ones() const override;

  [[nodiscard]] std::size_t depth() const { return buffer_.depth(); }

 private:
  ShuffleBuffer buffer_;
};

}  // namespace sc::core
