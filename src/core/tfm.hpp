/// \file tfm.hpp
/// Tracking forecast memory (TFM) baseline, Tehrani et al. ICASSP 2009
/// (paper ref [11]).
///
/// A TFM tracks the running probability of its input stream with a
/// fixed-point exponential moving average,
///     P(t) = P(t-1) + beta * (b(t) - P(t-1)),   beta = 2^-shift,
/// and *regenerates* the output bit each cycle by comparing the estimate
/// against an auxiliary RNG.  Because the output randomness comes from the
/// aux RNG rather than the input, a TFM re-randomizes (decorrelates) a
/// stream - the role edge memories / TFMs play in stochastic LDPC decoders.
///
/// The paper evaluates TFMs as a decorrelation alternative (Table II) and
/// finds them weaker than the shuffle-buffer decorrelator and biased when
/// the estimate lags the input (the EMA is a low-pass filter: it reacts
/// slowly and its regeneration noise floor depends on the aux RNG quality).
/// TFMs also carry binary-encoded arithmetic (an adder and register),
/// making them larger than the proposed decorrelator.

#pragma once

#include <cstdint>

#include "core/pair_transform.hpp"
#include "rng/random_source.hpp"

namespace sc::core {

/// Single-stream tracking forecast memory.
class TrackingForecastMemory final : public StreamTransform {
 public:
  struct Config {
    /// Fixed-point fraction bits of the probability estimate (1..30); the
    /// estimate lives in [0, 2^precision].
    unsigned precision = 8;
    /// EMA shift: beta = 2^-shift (0..31).
    unsigned shift = 3;
    /// Initial estimate as a fraction of full scale (0.5 = mid-scale).
    double initial = 0.5;
  };

  /// \param source aux RNG for output regeneration; owned.  Its width must
  ///               equal config.precision.  A null source, a width
  ///               mismatch, or a precision or shift out of range throws
  ///               std::invalid_argument.
  TrackingForecastMemory(Config config, rng::RandomSourcePtr source);

  bool step(bool in) override;
  /// Word path (precision <= 8): a nibble-jump table advances four
  /// estimate updates per lookup into a trace, and the output regenerates
  /// a word at a time as (aux draw < trace entry) through the aux
  /// source's word API (fill_compare_trace).  Higher precisions step
  /// every cycle.
  void process(Word* x, std::size_t bits) override;
  void reset() override;

  /// Current probability estimate in [0, 1].
  [[nodiscard]] double estimate() const;

  const Config& config() const { return config_; }
  [[nodiscard]] std::int32_t scale() const { return scale_; }

 private:
  friend class TfmPair;  // fuses the two estimate walks of a pair

  /// The configuration's shared nibble-jump table, fetched on first use;
  /// nullptr above precision 8.
  const std::uint64_t* jump_table();

  Config config_;
  rng::RandomSourcePtr source_;
  std::int32_t scale_;     // 2^precision
  std::int32_t initial_;   // initial estimate in fixed point
  std::int32_t estimate_;  // current estimate in fixed point
  const std::uint64_t* jump_ = nullptr;
};

/// Pair of independent TFMs as a decorrelating pair transform
/// (the paper's Table II "Tracking Forecast Memory" row).
class TfmPair final : public PairTransform {
 public:
  TfmPair(TrackingForecastMemory::Config config, rng::RandomSourcePtr source_x,
          rng::RandomSourcePtr source_y);

  BitPair step(bool x, bool y) override;
  /// Both TFMs' word paths fused: one pass walks both inputs (the two
  /// estimate chains are independent, so their jump loads overlap), then
  /// each stream regenerates through its own aux source.
  void process(Word* x, Word* y, std::size_t bits) override;
  void reset() override;

 private:
  TrackingForecastMemory tfm_x_;
  TrackingForecastMemory tfm_y_;
};

}  // namespace sc::core
