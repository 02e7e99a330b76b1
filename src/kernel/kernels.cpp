#include "kernel/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/shuffle_buffer.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "kernel/fastmod.hpp"
#include "kernel/pair_table.hpp"

namespace sc::kernel {
namespace {

using Word = Bitstream::Word;

/// Largest pair-FSM state count we table (nibble table is states * 1 KiB,
/// so the cap bounds a cached table at 4 MiB).
constexpr unsigned kMaxPairStates = 4096;

/// Largest shuffle depth with a mask-indexed transition table (512 KiB at
/// depth 12); deeper buffers use the direct-update path.
constexpr std::size_t kMaxShuffleTableDepth = 12;

/// Largest TFM precision we table (2 * (2^16 + 1) entries at 16).
constexpr unsigned kMaxTfmPrecision = 16;

/// RNG values prefetched per block for the RNG-coupled kernels.  A
/// multiple of 64 so block starts stay word-aligned, which is what lets
/// the word-parallel paths hand whole words to the SIMD shim.
constexpr std::size_t kRngBlock = 4096;

/// Largest TFM precision served by the word-parallel datapath: the aux
/// source width equals the precision (tfm.hpp contract), so estimates fit
/// 16-bit trace entries and aux draws fit a byte (an LFSR serves them from
/// its width's shared orbit byte table).  Higher precisions run the
/// per-cycle table path.
constexpr unsigned kMaxWordTfmPrecision = 8;

/// Word-parallel eligibility for a shuffle depth: the slot-class PEXT/PDEP
/// decomposition in the SIMD shim handles depths 1..63 (depth 64 would
/// need 65 slot classes and 64-bit shifts by 64).
bool shuffle_word_path(std::size_t depth) {
  return depth >= 1 && depth <= 63 && simd::word_parallel_enabled();
}

// ------------------------------------------------------------ table caches

/// Shared memoization shape of the table caches below: one lock-guarded
/// map per table family, built on first request for a key.
template <typename Key, typename Value, typename BuildFn>
std::shared_ptr<const Value> cached(
    std::mutex& mutex, std::map<Key, std::shared_ptr<const Value>>& cache,
    const Key& key, BuildFn&& build) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  std::shared_ptr<const Value> value = build();
  cache.emplace(key, value);
  return value;
}

std::shared_ptr<const PairNibbleTable> synchronizer_table(unsigned depth) {
  // State count computed in 64 bits: a wrapped count would pass the cap
  // check and build an undersized table (out-of-bounds lookups later).
  const std::uint64_t states = 2 * std::uint64_t{depth} + 1;
  if (depth < 1 || states > kMaxPairStates) return nullptr;
  static std::mutex mutex;
  static std::map<unsigned, std::shared_ptr<const PairNibbleTable>> cache;
  return cached(mutex, cache, depth, [&] {
    // State index = credit + depth.
    return std::make_shared<const PairNibbleTable>(PairNibbleTable::build(
        static_cast<unsigned>(states), [depth](unsigned s, bool x, bool y) {
          const core::Synchronizer::Transition t =
              core::Synchronizer::transition(
                  depth, static_cast<int>(s) - static_cast<int>(depth), x, y);
          return PairStep{
              static_cast<unsigned>(t.credit + static_cast<int>(depth)),
              t.out_x, t.out_y};
        }));
  });
}

std::shared_ptr<const PairNibbleTable> desynchronizer_table(unsigned depth) {
  // State index = ((saved_x * (depth + 1) + saved_y) << 1) | save_from_x.
  // Combinations with saved_x + saved_y > depth are encodable but
  // unreachable; the pure transition is total over them regardless.
  const std::uint64_t side = std::uint64_t{depth} + 1;
  const std::uint64_t states = 2 * side * side;  // 64-bit: no wrap past cap
  if (depth < 1 || states > kMaxPairStates) return nullptr;
  static std::mutex mutex;
  static std::map<unsigned, std::shared_ptr<const PairNibbleTable>> cache;
  return cached(mutex, cache, depth, [&] {
    const auto side32 = static_cast<unsigned>(side);
    return std::make_shared<const PairNibbleTable>(PairNibbleTable::build(
        static_cast<unsigned>(states),
        [depth, side32](unsigned s, bool x, bool y) {
          const unsigned pair = s >> 1;
          const core::Desynchronizer::Transition t =
              core::Desynchronizer::transition(depth, pair / side32,
                                               pair % side32, (s & 1u) != 0,
                                               x, y);
          return PairStep{((t.saved_x * side32 + t.saved_y) << 1) |
                              (t.save_from_x ? 1u : 0u),
                          t.out_x, t.out_y};
        }));
  });
}

/// Per-cycle shuffle-buffer table: entry = out | next_mask << 1, indexed by
/// (mask << mask_shift) | (address << 1) | in.
struct ShuffleTable {
  std::vector<std::uint32_t> entries;
  unsigned mask_shift = 0;
};

std::shared_ptr<const ShuffleTable> shuffle_table(std::size_t depth) {
  if (depth < 1 || depth > kMaxShuffleTableDepth) return nullptr;
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const ShuffleTable>> cache;
  return cached(mutex, cache, depth, [&] {
    auto table = std::make_shared<ShuffleTable>();
    unsigned shift = 1;
    while ((std::size_t{1} << shift) < 2 * (depth + 1)) ++shift;
    table->mask_shift = shift;
    table->entries.assign((std::size_t{1} << depth) << shift, 0);
    for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << depth); ++mask) {
      for (std::size_t r = 0; r <= depth; ++r) {
        for (unsigned in = 0; in < 2; ++in) {
          const core::ShuffleBuffer::Transition t =
              core::ShuffleBuffer::transition(mask, depth, r, in != 0);
          table->entries[(std::size_t{mask} << shift) | (r << 1) | in] =
              (t.out ? 1u : 0u) |
              (static_cast<std::uint32_t>(t.slots) << 1);
        }
      }
    }
    return std::shared_ptr<const ShuffleTable>(std::move(table));
  });
}

std::shared_ptr<const std::vector<std::int32_t>> tfm_table(unsigned precision,
                                                           unsigned shift) {
  if (precision > kMaxTfmPrecision) return nullptr;
  static std::mutex mutex;
  static std::map<std::pair<unsigned, unsigned>,
                  std::shared_ptr<const std::vector<std::int32_t>>>
      cache;
  return cached(mutex, cache, std::make_pair(precision, shift), [&] {
    const std::int32_t scale = std::int32_t{1} << precision;
    auto table = std::make_shared<std::vector<std::int32_t>>(
        2 * (static_cast<std::size_t>(scale) + 1));
    for (std::int32_t est = 0; est <= scale; ++est) {
      for (unsigned in = 0; in < 2; ++in) {
        (*table)[(static_cast<std::size_t>(est) << 1) | in] =
            core::TrackingForecastMemory::next_estimate(est, in != 0, shift,
                                                        scale);
      }
    }
    return std::shared_ptr<const std::vector<std::int32_t>>(std::move(table));
  });
}

/// Nibble-jump table for the word-parallel TFM path: entry (est, nibble)
/// packs the four successive post-update estimates reached by consuming
/// the nibble's bits (LSB first) as four little-endian uint16 lanes — the
/// exact regeneration-trace layout — so one lookup advances four cycles
/// and the top lane (entry >> 48) is the successor estimate.  Built by
/// composing the per-cycle tfm_table, so it inherits that table's exact
/// core::TrackingForecastMemory semantics.  Size (2^p + 1) * 16 * 8 bytes
/// (33 KiB at the precision-8 cap).
std::shared_ptr<const std::vector<std::uint64_t>> tfm_jump_table(
    unsigned precision, unsigned shift) {
  if (precision > kMaxWordTfmPrecision) return nullptr;
  auto steps = tfm_table(precision, shift);
  if (!steps) return nullptr;
  static std::mutex mutex;
  static std::map<std::pair<unsigned, unsigned>,
                  std::shared_ptr<const std::vector<std::uint64_t>>>
      cache;
  return cached(mutex, cache, std::make_pair(precision, shift), [&] {
    const std::int32_t scale = std::int32_t{1} << precision;
    auto table = std::make_shared<std::vector<std::uint64_t>>(
        (static_cast<std::size_t>(scale) + 1) << 4);
    for (std::int32_t est = 0; est <= scale; ++est) {
      for (unsigned nib = 0; nib < 16; ++nib) {
        std::uint64_t entry = 0;
        std::int32_t e = est;
        for (unsigned g = 0; g < 4; ++g) {
          e = (*steps)[(static_cast<std::size_t>(e) << 1) | ((nib >> g) & 1u)];
          entry |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(e))
                   << (16 * g);
        }
        (*table)[(static_cast<std::size_t>(est) << 4) | nib] = entry;
      }
    }
    return std::shared_ptr<const std::vector<std::uint64_t>>(std::move(table));
  });
}

// -------------------------------------------- synchronizer / desynchronizer

/// Shared driver for the two table-driven flush-capable pair FSMs: table
/// path while the flush force condition cannot fire, bit-serial handoff
/// (to the real FSM) for the final `capacity` announced cycles and beyond.
class FlushingPairKernel : public PairKernel {
 public:
  void process(Word* xw, Word* yw, std::size_t bits) override {
    std::size_t done = 0;
    if (!serial_tail_) {
      std::size_t safe = bits;
      if (flush_ && length_known_) {
        // |saved bits| <= capacity, so the force condition is unreachable
        // while more than `capacity` announced cycles remain.
        safe = remaining_ > capacity_
                   ? std::min(bits, remaining_ - capacity_)
                   : 0;
      }
      if (safe != 0) {
        state_ = run_pair_table(*table_, state_, xw, yw, xw, yw, safe);
        remaining_ -= std::min(safe, remaining_);
        done = safe;
      }
      if (done < bits) {
        sync_state_to_fsm();
        serial_tail_ = true;
      }
    }
    for (; done < bits; ++done) {
      Word& xword = xw[done / 64];
      Word& yword = yw[done / 64];
      const auto b = static_cast<unsigned>(done % 64);
      const core::BitPair out =
          serial_step(((xword >> b) & 1u) != 0, ((yword >> b) & 1u) != 0);
      const Word m = Word{1} << b;
      xword = (xword & ~m) | (out.x ? m : Word{0});
      yword = (yword & ~m) | (out.y ? m : Word{0});
    }
  }

  void finish() override {
    if (!serial_tail_) sync_state_to_fsm();
  }

 protected:
  std::shared_ptr<const PairNibbleTable> table_;
  unsigned state_ = 0;
  unsigned capacity_ = 0;  // maximum saved bits == width of the flush window
  bool flush_ = false;
  std::size_t remaining_ = 0;
  bool length_known_ = false;
  bool serial_tail_ = false;

  /// Writes (state_, remaining_, length_known_) into the wrapped FSM.
  virtual void sync_state_to_fsm() = 0;
  /// Steps the wrapped FSM directly (used after the handoff).
  virtual core::BitPair serial_step(bool x, bool y) = 0;
};

class SynchronizerKernel final : public FlushingPairKernel {
 public:
  SynchronizerKernel(core::Synchronizer& fsm,
                     std::shared_ptr<const PairNibbleTable> table)
      : fsm_(fsm) {
    table_ = std::move(table);
    capacity_ = fsm.config().depth;
    flush_ = fsm.config().flush;
    const core::Synchronizer::State st = fsm.state();
    state_ = static_cast<unsigned>(st.credit + static_cast<int>(capacity_));
    remaining_ = st.remaining;
    length_known_ = st.length_known;
  }

 private:
  void sync_state_to_fsm() override {
    fsm_.set_state({static_cast<int>(state_) - static_cast<int>(capacity_),
                    remaining_, length_known_});
  }
  core::BitPair serial_step(bool x, bool y) override {
    return fsm_.step(x, y);
  }

  core::Synchronizer& fsm_;
};

class DesynchronizerKernel final : public FlushingPairKernel {
 public:
  DesynchronizerKernel(core::Desynchronizer& fsm,
                       std::shared_ptr<const PairNibbleTable> table)
      : fsm_(fsm) {
    table_ = std::move(table);
    capacity_ = fsm.config().depth;
    flush_ = fsm.config().flush;
    const core::Desynchronizer::State st = fsm.state();
    const unsigned side = capacity_ + 1;
    state_ = ((st.saved_x * side + st.saved_y) << 1) |
             (st.save_from_x ? 1u : 0u);
    remaining_ = st.remaining;
    length_known_ = st.length_known;
  }

 private:
  void sync_state_to_fsm() override {
    const unsigned side = capacity_ + 1;
    const unsigned pair = state_ >> 1;
    fsm_.set_state({pair / side, pair % side, (state_ & 1u) != 0, remaining_,
                    length_known_});
  }
  core::BitPair serial_step(bool x, bool y) override {
    return fsm_.step(x, y);
  }

  core::Desynchronizer& fsm_;
};

// ------------------------------------------------------------- decorrelator

/// One shuffle buffer driven a word at a time.  The address RNG is
/// prefilled a block at a time from the buffer's own source and reduced
/// with an exact divide-free modulo; slot contents live in a register
/// mask.  Depth <= kMaxShuffleTableDepth advances through the cached
/// transition table, deeper buffers through direct mask updates.
class ShuffleHalf {
 public:
  ShuffleHalf(core::ShuffleBuffer& buffer,
              std::shared_ptr<const ShuffleTable> table)
      : buffer_(buffer),
        table_(std::move(table)),
        depth_(static_cast<std::uint32_t>(buffer.depth())),
        mod_(static_cast<std::uint32_t>(buffer.depth() + 1)),
        mask_(buffer.slots_mask()) {}

  void process(Word* w, std::size_t bits, std::uint32_t* raw) {
    if (shuffle_word_path(depth_)) {
      process_words(w, bits);
      return;
    }
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      buffer_.source().fill(raw, n);
      if (table_) {
        run_table(w, pos, n, raw);
      } else {
        run_direct(w, pos, n, raw);
      }
      pos += n;
    }
  }

  void finish() { buffer_.set_slots_mask(mask_); }

 private:
  /// Word-parallel path: address draws come pre-reduced from the source's
  /// word API (identical values to mod_(fill(..)) — both are exact modulo)
  /// and whole words advance through the SIMD slot-class shuffle, with the
  /// slot mask threaded through unchanged.
  void process_words(Word* w, std::size_t bits) {
    std::uint8_t idx[kRngBlock];
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      buffer_.source().fill_indices(idx, n, depth_ + 1);
      simd::shuffle_words(w + pos / 64, idx, n, depth_, &mask_);
      pos += n;
    }
  }

 private:
  template <typename CycleFn>
  void run_blocked(Word* w, std::size_t pos, std::size_t n,
                   const std::uint32_t* raw, CycleFn&& cycle) {
    std::size_t i = 0;
    while (i < n) {
      const std::size_t bit = pos + i;
      Word& word = w[bit / 64];
      const auto off = static_cast<unsigned>(bit % 64);
      const auto take =
          static_cast<unsigned>(std::min<std::size_t>(64 - off, n - i));
      const Word in_bits = word >> off;
      Word out_bits = 0;
      for (unsigned b = 0; b < take; ++b) {
        const std::uint32_t r = mod_(raw[i + b]);
        const bool in = ((in_bits >> b) & 1u) != 0;
        out_bits |= static_cast<Word>(cycle(r, in)) << b;
      }
      const Word m = take == 64 ? ~Word{0} : (Word{1} << take) - 1;
      word = (word & ~(m << off)) | ((out_bits & m) << off);
      i += take;
    }
  }

  void run_table(Word* w, std::size_t pos, std::size_t n,
                 const std::uint32_t* raw) {
    const std::uint32_t* entries = table_->entries.data();
    const unsigned shift = table_->mask_shift;
    auto mask = static_cast<std::uint32_t>(mask_);
    run_blocked(w, pos, n, raw, [&](std::uint32_t r, bool in) -> unsigned {
      const std::uint32_t e =
          entries[(static_cast<std::size_t>(mask) << shift) | (r << 1) |
                  (in ? 1u : 0u)];
      mask = e >> 1;
      return e & 1u;
    });
    mask_ = mask;
  }

  void run_direct(Word* w, std::size_t pos, std::size_t n,
                  const std::uint32_t* raw) {
    std::uint64_t mask = mask_;
    const std::uint32_t depth = depth_;
    run_blocked(w, pos, n, raw, [&](std::uint32_t r, bool in) -> unsigned {
      if (r == depth) return in ? 1u : 0u;
      const auto out = static_cast<unsigned>((mask >> r) & 1u);
      mask = (mask & ~(std::uint64_t{1} << r)) |
             (static_cast<std::uint64_t>(in) << r);
      return out;
    });
    mask_ = mask;
  }

  core::ShuffleBuffer& buffer_;
  std::shared_ptr<const ShuffleTable> table_;
  std::uint32_t depth_;
  FastMod mod_;
  std::uint64_t mask_;
};

class DecorrelatorKernel final : public PairKernel {
 public:
  explicit DecorrelatorKernel(core::Decorrelator& dec)
      : buffer_x_(dec.buffer_x()),
        buffer_y_(dec.buffer_y()),
        table_(shuffle_table(dec.depth())),
        depth_(static_cast<std::uint32_t>(dec.depth())),
        mod_(static_cast<std::uint32_t>(dec.depth() + 1)),
        mask_x_(dec.buffer_x().slots_mask()),
        mask_y_(dec.buffer_y().slots_mask()),
        raw_x_(kRngBlock),
        raw_y_(kRngBlock) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    if (shuffle_word_path(depth_)) {
      // Word-parallel path: the two buffers are fully independent (separate
      // sources, separate slot masks), so each advances through the SIMD
      // slot-class shuffle on whole words.  Address draws are block-filled
      // per buffer exactly as below, so the sequences are identical.
      std::uint8_t idx[kRngBlock];
      std::size_t pos = 0;
      while (pos < bits) {
        const std::size_t n = std::min(kRngBlock, bits - pos);
        buffer_x_.source().fill_indices(idx, n, depth_ + 1);
        simd::shuffle_words(xw + pos / 64, idx, n, depth_, &mask_x_);
        buffer_y_.source().fill_indices(idx, n, depth_ + 1);
        simd::shuffle_words(yw + pos / 64, idx, n, depth_, &mask_y_);
        pos += n;
      }
      return;
    }
    // Both buffers advance in one fused loop: each buffer's state chain
    // (mask -> table load -> mask) is serially dependent, so running the
    // two independent chains together overlaps their latencies and
    // roughly halves the per-bit cost versus one buffer after the other.
    // The sources are independent, so block-filling each is
    // sequence-identical to the cycle-interleaved serial path.
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      buffer_x_.source().fill(raw_x_.data(), n);
      buffer_y_.source().fill(raw_y_.data(), n);
      if (table_) {
        run_table(xw, yw, pos, n);
      } else {
        run_direct(xw, yw, pos, n);
      }
      pos += n;
    }
  }

  void finish() override {
    buffer_x_.set_slots_mask(mask_x_);
    buffer_y_.set_slots_mask(mask_y_);
  }

 private:
  /// Iterates word segments shared by both streams, calling
  /// cycle(rx, ry, in_x, in_y) -> packed (out_x | out_y << 1) per bit.
  template <typename CycleFn>
  void run_fused(Word* xw, Word* yw, std::size_t pos, std::size_t n,
                 CycleFn&& cycle) {
    std::size_t i = 0;
    while (i < n) {
      const std::size_t bit = pos + i;
      Word& xword = xw[bit / 64];
      Word& yword = yw[bit / 64];
      const auto off = static_cast<unsigned>(bit % 64);
      const auto take =
          static_cast<unsigned>(std::min<std::size_t>(64 - off, n - i));
      const Word xin = xword >> off;
      const Word yin = yword >> off;
      Word xout = 0;
      Word yout = 0;
      for (unsigned b = 0; b < take; ++b) {
        const std::uint32_t rx = mod_(raw_x_[i + b]);
        const std::uint32_t ry = mod_(raw_y_[i + b]);
        const unsigned packed = cycle(rx, ry, ((xin >> b) & 1u) != 0,
                                      ((yin >> b) & 1u) != 0);
        xout |= static_cast<Word>(packed & 1u) << b;
        yout |= static_cast<Word>((packed >> 1) & 1u) << b;
      }
      const Word m = take == 64 ? ~Word{0} : (Word{1} << take) - 1;
      xword = (xword & ~(m << off)) | ((xout & m) << off);
      yword = (yword & ~(m << off)) | ((yout & m) << off);
      i += take;
    }
  }

  void run_table(Word* xw, Word* yw, std::size_t pos, std::size_t n) {
    const std::uint32_t* entries = table_->entries.data();
    const unsigned shift = table_->mask_shift;
    auto mask_x = static_cast<std::uint32_t>(mask_x_);
    auto mask_y = static_cast<std::uint32_t>(mask_y_);
    run_fused(xw, yw, pos, n,
              [&](std::uint32_t rx, std::uint32_t ry, bool in_x,
                  bool in_y) -> unsigned {
                const std::uint32_t ex =
                    entries[(static_cast<std::size_t>(mask_x) << shift) |
                            (rx << 1) | (in_x ? 1u : 0u)];
                const std::uint32_t ey =
                    entries[(static_cast<std::size_t>(mask_y) << shift) |
                            (ry << 1) | (in_y ? 1u : 0u)];
                mask_x = ex >> 1;
                mask_y = ey >> 1;
                return (ex & 1u) | ((ey & 1u) << 1);
              });
    mask_x_ = mask_x;
    mask_y_ = mask_y;
  }

  void run_direct(Word* xw, Word* yw, std::size_t pos, std::size_t n) {
    std::uint64_t mask_x = mask_x_;
    std::uint64_t mask_y = mask_y_;
    const std::uint32_t depth = depth_;
    run_fused(xw, yw, pos, n,
              [&](std::uint32_t rx, std::uint32_t ry, bool in_x,
                  bool in_y) -> unsigned {
                unsigned out = 0;
                if (rx == depth) {
                  out |= in_x ? 1u : 0u;
                } else {
                  out |= static_cast<unsigned>((mask_x >> rx) & 1u);
                  mask_x = (mask_x & ~(std::uint64_t{1} << rx)) |
                           (static_cast<std::uint64_t>(in_x) << rx);
                }
                if (ry == depth) {
                  out |= in_y ? 2u : 0u;
                } else {
                  out |= static_cast<unsigned>((mask_y >> ry) & 1u) << 1;
                  mask_y = (mask_y & ~(std::uint64_t{1} << ry)) |
                           (static_cast<std::uint64_t>(in_y) << ry);
                }
                return out;
              });
    mask_x_ = mask_x;
    mask_y_ = mask_y;
  }

  core::ShuffleBuffer& buffer_x_;
  core::ShuffleBuffer& buffer_y_;
  std::shared_ptr<const ShuffleTable> table_;
  std::uint32_t depth_;
  FastMod mod_;
  std::uint64_t mask_x_;
  std::uint64_t mask_y_;
  std::vector<std::uint32_t> raw_x_;
  std::vector<std::uint32_t> raw_y_;
};

class ShuffleStreamKernel final : public StreamKernel {
 public:
  explicit ShuffleStreamKernel(core::ShuffleBuffer& buffer)
      : half_(buffer, shuffle_table(buffer.depth())), raw_(kRngBlock) {}

  void process(Word* x, std::size_t bits) override {
    half_.process(x, bits, raw_.data());
  }
  void finish() override { half_.finish(); }

 private:
  ShuffleHalf half_;
  std::vector<std::uint32_t> raw_;
};

// ---------------------------------------------------------------------- TFM

/// One TFM driven a word at a time: estimate table lookup plus a compare
/// against the prefilled regeneration RNG.
class TfmHalf {
 public:
  TfmHalf(core::TrackingForecastMemory& tfm,
          std::shared_ptr<const std::vector<std::int32_t>> table)
      : tfm_(tfm),
        table_(std::move(table)),
        jump_(simd::word_parallel_enabled()
                  ? tfm_jump_table(tfm.config().precision, tfm.config().shift)
                  : nullptr),
        estimate_(tfm.estimate_fixed()) {}

  void process(Word* w, std::size_t bits, std::uint32_t* raw) {
    if (jump_) {
      process_words(w, bits);
      return;
    }
    const std::int32_t* table = table_->data();
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      tfm_.aux_source().fill(raw, n);
      std::int32_t est = estimate_;
      std::size_t i = 0;
      while (i < n) {
        const std::size_t bit = pos + i;
        Word& word = w[bit / 64];
        const auto off = static_cast<unsigned>(bit % 64);
        const auto take =
            static_cast<unsigned>(std::min<std::size_t>(64 - off, n - i));
        const Word in_bits = word >> off;
        Word out_bits = 0;
        for (unsigned b = 0; b < take; ++b) {
          est = table[(static_cast<std::size_t>(est) << 1) |
                      static_cast<std::size_t>((in_bits >> b) & 1u)];
          const bool out = static_cast<std::int32_t>(raw[i + b]) < est;
          out_bits |= static_cast<Word>(out) << b;
        }
        const Word m = take == 64 ? ~Word{0} : (Word{1} << take) - 1;
        word = (word & ~(m << off)) | ((out_bits & m) << off);
        i += take;
      }
      estimate_ = est;
      pos += n;
    }
  }

  void finish() { tfm_.set_estimate_fixed(estimate_); }

 private:
  /// Word-parallel path: phase 1 walks the input a nibble-jump at a time,
  /// recording the post-update estimate trace; phase 2 regenerates the
  /// output word-at-a-time as (aux draw < trace entry) through the aux
  /// source's word API.  Both phases are exact compositions of the
  /// per-cycle rule: update the estimate first, then compare.
  void process_words(Word* w, std::size_t bits) {
    const std::uint64_t* jump = jump_->data();
    const std::int32_t* table = table_->data();
    std::uint16_t trace[kRngBlock];
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      Word* base = w + pos / 64;
      std::int32_t est = estimate_;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        const auto nib =
            static_cast<unsigned>((base[i / 64] >> (i % 64)) & 0xF);
        const std::uint64_t e = jump[(static_cast<std::size_t>(est) << 4) |
                                     nib];
        std::memcpy(trace + i, &e, sizeof(e));
        est = static_cast<std::int32_t>(e >> 48);
      }
      for (; i < n; ++i) {
        est = table[(static_cast<std::size_t>(est) << 1) |
                    static_cast<std::size_t>((base[i / 64] >> (i % 64)) & 1u)];
        trace[i] = static_cast<std::uint16_t>(est);
      }
      estimate_ = est;
      const std::size_t full = n / 64;
      for (std::size_t k = 0; k < full; ++k) base[k] = 0;
      if (n % 64 != 0) base[full] &= ~Word{0} << (n % 64);
      tfm_.aux_source().fill_compare_trace(base, trace, n);
      pos += n;
    }
  }

  core::TrackingForecastMemory& tfm_;
  std::shared_ptr<const std::vector<std::int32_t>> table_;
  std::shared_ptr<const std::vector<std::uint64_t>> jump_;
  std::int32_t estimate_;
};

class TfmPairKernel final : public PairKernel {
 public:
  TfmPairKernel(core::TfmPair& pair,
                std::shared_ptr<const std::vector<std::int32_t>> table)
      : tfm_x_(pair.tfm_x()),
        tfm_y_(pair.tfm_y()),
        table_(std::move(table)),
        jump_(simd::word_parallel_enabled()
                  ? tfm_jump_table(pair.tfm_x().config().precision,
                                   pair.tfm_x().config().shift)
                  : nullptr),
        est_x_(pair.tfm_x().estimate_fixed()),
        est_y_(pair.tfm_y().estimate_fixed()),
        raw_x_(kRngBlock),
        raw_y_(kRngBlock) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    if (jump_) {
      process_words(xw, yw, bits);
      return;
    }
    // Fused like the decorrelator: the two estimate chains are serially
    // dependent table loads, so interleaving them overlaps the latency.
    const std::int32_t* table = table_->data();
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      tfm_x_.aux_source().fill(raw_x_.data(), n);
      tfm_y_.aux_source().fill(raw_y_.data(), n);
      std::int32_t est_x = est_x_;
      std::int32_t est_y = est_y_;
      std::size_t i = 0;
      while (i < n) {
        const std::size_t bit = pos + i;
        Word& xword = xw[bit / 64];
        Word& yword = yw[bit / 64];
        const auto off = static_cast<unsigned>(bit % 64);
        const auto take =
            static_cast<unsigned>(std::min<std::size_t>(64 - off, n - i));
        const Word xin = xword >> off;
        const Word yin = yword >> off;
        Word xout = 0;
        Word yout = 0;
        for (unsigned b = 0; b < take; ++b) {
          est_x = table[(static_cast<std::size_t>(est_x) << 1) |
                        static_cast<std::size_t>((xin >> b) & 1u)];
          est_y = table[(static_cast<std::size_t>(est_y) << 1) |
                        static_cast<std::size_t>((yin >> b) & 1u)];
          xout |= static_cast<Word>(
                      static_cast<std::int32_t>(raw_x_[i + b]) < est_x)
                  << b;
          yout |= static_cast<Word>(
                      static_cast<std::int32_t>(raw_y_[i + b]) < est_y)
                  << b;
        }
        const Word m = take == 64 ? ~Word{0} : (Word{1} << take) - 1;
        xword = (xword & ~(m << off)) | ((xout & m) << off);
        yword = (yword & ~(m << off)) | ((yout & m) << off);
        i += take;
      }
      est_x_ = est_x;
      est_y_ = est_y;
      pos += n;
    }
  }

  void finish() override {
    tfm_x_.set_estimate_fixed(est_x_);
    tfm_y_.set_estimate_fixed(est_y_);
  }

 private:
  /// Word-parallel path, fused across the pair: one pass walks both
  /// inputs through the nibble-jump table (the two estimate chains are
  /// independent, so their jump loads overlap), then each stream
  /// regenerates through its own aux source's word API.
  void process_words(Word* xw, Word* yw, std::size_t bits) {
    const std::uint64_t* jump = jump_->data();
    const std::int32_t* table = table_->data();
    std::uint16_t trace_x[kRngBlock];
    std::uint16_t trace_y[kRngBlock];
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      Word* xbase = xw + pos / 64;
      Word* ybase = yw + pos / 64;
      std::int32_t est_x = est_x_;
      std::int32_t est_y = est_y_;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        const auto xnib =
            static_cast<unsigned>((xbase[i / 64] >> (i % 64)) & 0xF);
        const auto ynib =
            static_cast<unsigned>((ybase[i / 64] >> (i % 64)) & 0xF);
        const std::uint64_t ex =
            jump[(static_cast<std::size_t>(est_x) << 4) | xnib];
        const std::uint64_t ey =
            jump[(static_cast<std::size_t>(est_y) << 4) | ynib];
        std::memcpy(trace_x + i, &ex, sizeof(ex));
        std::memcpy(trace_y + i, &ey, sizeof(ey));
        est_x = static_cast<std::int32_t>(ex >> 48);
        est_y = static_cast<std::int32_t>(ey >> 48);
      }
      for (; i < n; ++i) {
        est_x =
            table[(static_cast<std::size_t>(est_x) << 1) |
                  static_cast<std::size_t>((xbase[i / 64] >> (i % 64)) & 1u)];
        est_y =
            table[(static_cast<std::size_t>(est_y) << 1) |
                  static_cast<std::size_t>((ybase[i / 64] >> (i % 64)) & 1u)];
        trace_x[i] = static_cast<std::uint16_t>(est_x);
        trace_y[i] = static_cast<std::uint16_t>(est_y);
      }
      est_x_ = est_x;
      est_y_ = est_y;
      const std::size_t full = n / 64;
      for (std::size_t k = 0; k < full; ++k) xbase[k] = 0;
      for (std::size_t k = 0; k < full; ++k) ybase[k] = 0;
      if (n % 64 != 0) {
        xbase[full] &= ~Word{0} << (n % 64);
        ybase[full] &= ~Word{0} << (n % 64);
      }
      tfm_x_.aux_source().fill_compare_trace(xbase, trace_x, n);
      tfm_y_.aux_source().fill_compare_trace(ybase, trace_y, n);
      pos += n;
    }
  }

  core::TrackingForecastMemory& tfm_x_;
  core::TrackingForecastMemory& tfm_y_;
  std::shared_ptr<const std::vector<std::int32_t>> table_;
  std::shared_ptr<const std::vector<std::uint64_t>> jump_;
  std::int32_t est_x_;
  std::int32_t est_y_;
  std::vector<std::uint32_t> raw_x_;
  std::vector<std::uint32_t> raw_y_;
};

class TfmStreamKernel final : public StreamKernel {
 public:
  TfmStreamKernel(core::TrackingForecastMemory& tfm,
                  std::shared_ptr<const std::vector<std::int32_t>> table)
      : half_(tfm, std::move(table)), raw_(kRngBlock) {}

  void process(Word* x, std::size_t bits) override {
    half_.process(x, bits, raw_.data());
  }
  void finish() override { half_.finish(); }

 private:
  TfmHalf half_;
  std::vector<std::uint32_t> raw_;
};

/// Decorrelator chain link: y := shuffle(x), x untouched.  Copies x's
/// bits into y (preserving y's tail past `bits`), then runs the
/// single-stream shuffle kernel on y — bit-identical to the serial step
/// by the stream kernel's own equivalence.
class ChainLinkKernel final : public PairKernel {
 public:
  explicit ChainLinkKernel(std::unique_ptr<StreamKernel> shuffle)
      : shuffle_(std::move(shuffle)) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    const std::size_t words = bits / 64;
    for (std::size_t w = 0; w < words; ++w) yw[w] = xw[w];
    const unsigned rem = bits % 64;
    if (rem != 0) {
      const Word mask = (Word{1} << rem) - 1;
      yw[words] = (xw[words] & mask) | (yw[words] & ~mask);
    }
    shuffle_->process(yw, bits);
  }

  void finish() override { shuffle_->finish(); }

 private:
  std::unique_ptr<StreamKernel> shuffle_;
};

}  // namespace

// ------------------------------------------------------- nibble-table loop

unsigned run_pair_table(const PairNibbleTable& table, unsigned state,
                        const Word* x_in, const Word* y_in, Word* x_out,
                        Word* y_out, std::size_t bits) {
  std::size_t w = 0;
  for (; (w + 1) * 64 <= bits; ++w) {
    const Word xin = x_in[w];
    const Word yin = y_in[w];
    Word xout = 0;
    Word yout = 0;
    for (unsigned k = 0; k < 64; k += 4) {
      const auto xn = static_cast<unsigned>((xin >> k) & 0xF);
      const auto yn = static_cast<unsigned>((yin >> k) & 0xF);
      const PairNibbleTable::Entry e = table.lookup4(state, xn, yn);
      xout |= static_cast<Word>(e & 0xF) << k;
      yout |= static_cast<Word>((e >> 4) & 0xF) << k;
      state = e >> 8;
    }
    x_out[w] = xout;
    if (y_out != nullptr) y_out[w] = yout;
  }
  const auto rem = static_cast<unsigned>(bits - w * 64);
  if (rem != 0) {
    const Word xin = x_in[w];
    const Word yin = y_in[w];
    Word xout = 0;
    Word yout = 0;
    unsigned b = 0;
    for (; b + 4 <= rem; b += 4) {
      const auto xn = static_cast<unsigned>((xin >> b) & 0xF);
      const auto yn = static_cast<unsigned>((yin >> b) & 0xF);
      const PairNibbleTable::Entry e = table.lookup4(state, xn, yn);
      xout |= static_cast<Word>(e & 0xF) << b;
      yout |= static_cast<Word>((e >> 4) & 0xF) << b;
      state = e >> 8;
    }
    for (; b < rem; ++b) {
      const PairNibbleTable::Entry e = table.lookup1(
          state, ((xin >> b) & 1u) != 0, ((yin >> b) & 1u) != 0);
      xout |= static_cast<Word>(e & 1u) << b;
      yout |= static_cast<Word>((e >> 4) & 1u) << b;
      state = e >> 8;
    }
    const Word keep = ~Word{0} << rem;
    x_out[w] = (x_out[w] & keep) | xout;
    if (y_out != nullptr) y_out[w] = (y_out[w] & keep) | yout;
  }
  return state;
}

// ------------------------------------------------------------------ factory

std::unique_ptr<PairKernel> make_pair_kernel(core::PairTransform& transform) {
  if (auto* sync = dynamic_cast<core::Synchronizer*>(&transform)) {
    auto table = synchronizer_table(sync->config().depth);
    if (!table) return nullptr;
    return std::make_unique<SynchronizerKernel>(*sync, std::move(table));
  }
  if (auto* desync = dynamic_cast<core::Desynchronizer*>(&transform)) {
    auto table = desynchronizer_table(desync->config().depth);
    if (!table) return nullptr;
    return std::make_unique<DesynchronizerKernel>(*desync, std::move(table));
  }
  if (auto* dec = dynamic_cast<core::Decorrelator*>(&transform)) {
    if (dec->depth() < 1 || dec->depth() > 64) return nullptr;
    return std::make_unique<DecorrelatorKernel>(*dec);
  }
  if (auto* link = dynamic_cast<core::DecorrelatorChainLink*>(&transform)) {
    auto shuffle = make_stream_kernel(link->buffer());
    if (!shuffle) return nullptr;
    return std::make_unique<ChainLinkKernel>(std::move(shuffle));
  }
  if (auto* tfm = dynamic_cast<core::TfmPair*>(&transform)) {
    const auto& config = tfm->tfm_x().config();
    auto table = tfm_table(config.precision, config.shift);
    if (!table) return nullptr;
    return std::make_unique<TfmPairKernel>(*tfm, std::move(table));
  }
  return nullptr;
}

std::unique_ptr<StreamKernel> make_stream_kernel(
    core::StreamTransform& transform) {
  if (auto* buffer = dynamic_cast<core::ShuffleBuffer*>(&transform)) {
    if (buffer->depth() < 1 || buffer->depth() > 64) return nullptr;
    return std::make_unique<ShuffleStreamKernel>(*buffer);
  }
  if (auto* tfm = dynamic_cast<core::TrackingForecastMemory*>(&transform)) {
    auto table = tfm_table(tfm->config().precision, tfm->config().shift);
    if (!table) return nullptr;
    return std::make_unique<TfmStreamKernel>(*tfm, std::move(table));
  }
  return nullptr;
}

}  // namespace sc::kernel
