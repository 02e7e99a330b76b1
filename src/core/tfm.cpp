#include "core/tfm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kernel/pair_table.hpp"

namespace sc::core {

namespace {

using Word = Bitstream::Word;

/// Largest precision with a word path.  The aux source width equals the
/// precision (the constructor enforces it), so estimates fit the 16-bit
/// trace entries and aux draws fit a byte (an LFSR serves them from its
/// width's shared orbit byte table).
constexpr unsigned kMaxJumpPrecision = 8;

/// Cycles per word-path block: a multiple of 64, so block starts stay
/// word-aligned for the aux source's word API, and of 4, so only a
/// block's last nibble jump can be partial.
constexpr std::size_t kBlock = 4096;

/// Pure EMA update: the estimate after consuming `in`, before output
/// regeneration.
std::int32_t next_estimate(std::int32_t estimate, bool in, unsigned shift,
                           std::int32_t scale) {
  const std::int32_t target = in ? scale : 0;
  // C++20 guarantees arithmetic right shift of negatives; (target -
  // estimate) stays in [-scale, scale] regardless.
  return estimate + ((target - estimate) >> shift);
}

/// Nibble-jump table: entry (est, nibble) packs the four successive
/// post-update estimates reached by consuming the nibble's bits (LSB
/// first) as four little-endian uint16 lanes — the exact regeneration
/// trace layout — so one lookup advances four cycles and the top lane
/// (entry >> 48) is the successor estimate.  Size (2^p + 1) * 16 * 8
/// bytes (33 KiB at the precision-8 cap).
std::vector<std::uint64_t> build_jump_table(unsigned precision,
                                            unsigned shift) {
  const std::int32_t scale = std::int32_t{1} << precision;
  std::vector<std::uint64_t> table((static_cast<std::size_t>(scale) + 1)
                                   << 4);
  for (std::int32_t est = 0; est <= scale; ++est) {
    for (unsigned nib = 0; nib < 16; ++nib) {
      std::uint64_t entry = 0;
      std::int32_t e = est;
      for (unsigned g = 0; g < 4; ++g) {
        e = next_estimate(e, ((nib >> g) & 1u) != 0, shift, scale);
        entry |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(e))
                 << (16 * g);
      }
      table[(static_cast<std::size_t>(est) << 4) | nib] = entry;
    }
  }
  return table;
}

/// The configuration's shared jump table, or nullptr past the cap.
const std::uint64_t* nibble_jump_table(unsigned precision, unsigned shift) {
  if (precision > kMaxJumpPrecision) return nullptr;
  static kernel::TableCache<std::pair<unsigned, unsigned>,
                            std::vector<std::uint64_t>>
      cache;
  return cache
      .get({precision, shift},
           [precision, shift] { return build_jump_table(precision, shift); })
      .data();
}

// Each word-path block runs in two phases.  Phase 1 walks the input a
// nibble jump at a time, recording the post-update estimate trace; phase
// 2 regenerates the output as (aux draw < trace entry) through the aux
// source's word API.  Both are exact compositions of step(): update the
// estimate first, then compare.

/// One nibble jump over input bits [i, i + take) of `base` (i a multiple
/// of 4, take in 1..4): writes the post-update estimates to
/// trace[i, i + take) and returns the last.  Lane g of an entry depends
/// only on nibble bits 0..g, so a block's partial last nibble uses the
/// same lookup and keeps its first `take` lanes.
std::int32_t jump_nibble(const std::uint64_t* table, std::int32_t est,
                         const Word* base, std::size_t i, std::size_t take,
                         std::uint16_t* trace) {
  const auto nib = static_cast<unsigned>((base[i / 64] >> (i % 64)) & 0xF);
  const std::uint64_t e = table[(static_cast<std::size_t>(est) << 4) | nib];
  std::memcpy(trace + i, &e, take * sizeof(std::uint16_t));
  return static_cast<std::int32_t>((e >> (16 * (take - 1))) & 0xFFFF);
}

/// Phase 2: replaces bits [0, n) of `base` with (aux draw < trace entry).
void regenerate(rng::RandomSource& aux, Word* base,
                const std::uint16_t* trace, std::size_t n) {
  const std::size_t full = n / 64;
  std::fill(base, base + full, Word{0});
  if (n % 64 != 0) base[full] &= ~Word{0} << (n % 64);
  aux.fill_compare_trace(base, trace, n);
}

}  // namespace

TrackingForecastMemory::TrackingForecastMemory(Config config,
                                               rng::RandomSourcePtr source)
    : config_(config), source_(std::move(source)) {
  // Checked in every build: past these bounds the fixed-point arithmetic
  // overflows (1 << precision, >> shift), and an aux source of another
  // width compares against the wrong scale, pinning every output near 0
  // (wider) or 1 (narrower).
  if (source_ == nullptr) {
    throw std::invalid_argument("core::TrackingForecastMemory: null source");
  }
  if (config_.precision < 1 || config_.precision > 30) {
    throw std::invalid_argument(
        "core::TrackingForecastMemory: precision must be in 1..30");
  }
  if (config_.shift > 31) {
    throw std::invalid_argument(
        "core::TrackingForecastMemory: shift must be <= 31");
  }
  if (source_->width() != config_.precision) {
    throw std::invalid_argument(
        "core::TrackingForecastMemory: source width must equal precision");
  }
  scale_ = std::int32_t{1} << config_.precision;
  const double init = std::clamp(config_.initial, 0.0, 1.0);
  initial_ = static_cast<std::int32_t>(
      std::lround(init * static_cast<double>(scale_)));
  estimate_ = initial_;
}

bool TrackingForecastMemory::step(bool in) {
  estimate_ = next_estimate(estimate_, in, config_.shift, scale_);
  // Regenerate from the estimate with the aux RNG.
  return static_cast<std::int32_t>(source_->next()) < estimate_;
}

const std::uint64_t* TrackingForecastMemory::jump_table() {
  if (jump_ == nullptr) {
    jump_ = nibble_jump_table(config_.precision, config_.shift);
  }
  return jump_;
}

void TrackingForecastMemory::process(Word* x, std::size_t bits) {
  const std::uint64_t* table = jump_table();
  if (table == nullptr) {
    StreamTransform::process(x, bits);
    return;
  }
  std::uint16_t trace[kBlock];
  for (std::size_t pos = 0; pos < bits; pos += kBlock) {
    const std::size_t n = std::min(kBlock, bits - pos);
    Word* base = x + pos / 64;
    std::int32_t est = estimate_;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      est = jump_nibble(table, est, base, i, 4, trace);
    }
    if (i < n) est = jump_nibble(table, est, base, i, n - i, trace);
    estimate_ = est;
    regenerate(*source_, base, trace, n);
  }
}

void TrackingForecastMemory::reset() {
  estimate_ = initial_;
  source_->reset();
}

double TrackingForecastMemory::estimate() const {
  return static_cast<double>(estimate_) / static_cast<double>(scale_);
}

TfmPair::TfmPair(TrackingForecastMemory::Config config,
                 rng::RandomSourcePtr source_x, rng::RandomSourcePtr source_y)
    : tfm_x_(config, std::move(source_x)),
      tfm_y_(config, std::move(source_y)) {}

BitPair TfmPair::step(bool x, bool y) {
  return BitPair{tfm_x_.step(x), tfm_y_.step(y)};
}

void TfmPair::process(Word* x, Word* y, std::size_t bits) {
  const std::uint64_t* table = tfm_x_.jump_table();  // one config for both
  if (table == nullptr) {
    PairTransform::process(x, y, bits);
    return;
  }
  std::uint16_t trace_x[kBlock];
  std::uint16_t trace_y[kBlock];
  for (std::size_t pos = 0; pos < bits; pos += kBlock) {
    const std::size_t n = std::min(kBlock, bits - pos);
    Word* xbase = x + pos / 64;
    Word* ybase = y + pos / 64;
    std::int32_t est_x = tfm_x_.estimate_;
    std::int32_t est_y = tfm_y_.estimate_;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      est_x = jump_nibble(table, est_x, xbase, i, 4, trace_x);
      est_y = jump_nibble(table, est_y, ybase, i, 4, trace_y);
    }
    if (i < n) {
      est_x = jump_nibble(table, est_x, xbase, i, n - i, trace_x);
      est_y = jump_nibble(table, est_y, ybase, i, n - i, trace_y);
    }
    tfm_x_.estimate_ = est_x;
    tfm_y_.estimate_ = est_y;
    regenerate(*tfm_x_.source_, xbase, trace_x, n);
    regenerate(*tfm_y_.source_, ybase, trace_y, n);
  }
}

void TfmPair::reset() {
  tfm_x_.reset();
  tfm_y_.reset();
}

}  // namespace sc::core
