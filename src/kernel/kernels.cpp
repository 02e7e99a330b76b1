#include "kernel/kernels.hpp"

#include <algorithm>
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
#include "kernel/pair_table.hpp"

namespace sc::kernel {
namespace {

using Word = Bitstream::Word;

/// Largest pair-FSM state count we table (nibble table is states * 1 KiB,
/// so the cap bounds a cached table at 4 MiB).
constexpr unsigned kMaxPairStates = 4096;

/// Largest shuffle depth with a kernel: the slot contents are a 64-bit
/// mask.
constexpr std::size_t kMaxShuffleDepth = 64;

/// Largest TFM precision with a kernel.  The aux source width equals the
/// precision (the TrackingForecastMemory constructor enforces it), so
/// estimates fit the 16-bit trace entries and aux draws fit a byte (an
/// LFSR serves them from its width's shared orbit byte table).
constexpr unsigned kMaxTfmPrecision = 8;

/// RNG values drawn per block by the RNG-coupled kernels.  A multiple of
/// 64 so block starts stay word-aligned for the SIMD shim, and of 4 so
/// only a block's last nibble jump can be partial.
constexpr std::size_t kRngBlock = 4096;

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

/// Nibble-jump table for the TFM kernels: entry (est, nibble) packs the
/// four successive post-update estimates reached by consuming the
/// nibble's bits (LSB first) as four little-endian uint16 lanes — the
/// exact regeneration-trace layout — so one lookup advances four cycles
/// and the top lane (entry >> 48) is the successor estimate.  Built from
/// core::TrackingForecastMemory::next_estimate, so it carries the FSM's
/// exact update rule.  Size (2^p + 1) * 16 * 8 bytes (33 KiB at the
/// precision-8 cap).
std::shared_ptr<const std::vector<std::uint64_t>> tfm_jump_table(
    unsigned precision, unsigned shift) {
  if (precision > kMaxTfmPrecision) return nullptr;
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
          e = core::TrackingForecastMemory::next_estimate(
              e, ((nib >> g) & 1u) != 0, shift, scale);
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

/// One shuffle buffer advanced a word at a time: address draws come
/// pre-reduced to [0, depth] from the buffer's own source a block at a
/// time, and whole words advance through the SIMD shim's slot-class
/// shuffle with the slot mask threaded through.
class ShuffleKernel final : public StreamKernel {
 public:
  explicit ShuffleKernel(core::ShuffleBuffer& buffer)
      : buffer_(buffer),
        depth_(static_cast<unsigned>(buffer.depth())),
        mask_(buffer.slots_mask()) {}

  void process(Word* w, std::size_t bits) override {
    std::uint8_t idx[kRngBlock];
    for (std::size_t pos = 0; pos < bits; pos += kRngBlock) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      buffer_.source().fill_indices(idx, n, depth_ + 1);
      simd::shuffle_words(w + pos / 64, idx, n, depth_, &mask_);
    }
  }

  void finish() override { buffer_.set_slots_mask(mask_); }

 private:
  core::ShuffleBuffer& buffer_;
  unsigned depth_;
  std::uint64_t mask_;
};

/// The decorrelator's two buffers are fully independent (separate
/// sources, separate slot masks), so each stream runs its own kernel.
class DecorrelatorKernel final : public PairKernel {
 public:
  explicit DecorrelatorKernel(core::Decorrelator& dec)
      : x_(dec.buffer_x()), y_(dec.buffer_y()) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    x_.process(xw, bits);
    y_.process(yw, bits);
  }

  void finish() override {
    x_.finish();
    y_.finish();
  }

 private:
  ShuffleKernel x_;
  ShuffleKernel y_;
};

/// Decorrelator chain link: y := shuffle(x), x untouched.  Copies x's
/// bits into y (preserving y's tail past `bits`), then shuffles y.
class ChainLinkKernel final : public PairKernel {
 public:
  explicit ChainLinkKernel(core::ShuffleBuffer& buffer) : shuffle_(buffer) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    const std::size_t words = bits / 64;
    for (std::size_t w = 0; w < words; ++w) yw[w] = xw[w];
    const unsigned rem = bits % 64;
    if (rem != 0) {
      const Word mask = (Word{1} << rem) - 1;
      yw[words] = (xw[words] & mask) | (yw[words] & ~mask);
    }
    shuffle_.process(yw, bits);
  }

  void finish() override { shuffle_.finish(); }

 private:
  ShuffleKernel shuffle_;
};

bool shuffle_eligible(std::size_t depth) {
  return depth >= 1 && depth <= kMaxShuffleDepth;
}

// ---------------------------------------------------------------------- TFM
//
// Each block runs in two phases.  Phase 1 walks the input a nibble jump
// at a time, recording the post-update estimate trace; phase 2
// regenerates the output as (aux draw < trace entry) through the aux
// source's word API.  Both are exact compositions of the per-cycle rule:
// update the estimate first, then compare.

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

class TfmKernel final : public StreamKernel {
 public:
  TfmKernel(core::TrackingForecastMemory& tfm,
            std::shared_ptr<const std::vector<std::uint64_t>> jump)
      : tfm_(tfm), jump_(std::move(jump)), estimate_(tfm.estimate_fixed()) {}

  void process(Word* w, std::size_t bits) override {
    const std::uint64_t* table = jump_->data();
    std::uint16_t trace[kRngBlock];
    for (std::size_t pos = 0; pos < bits; pos += kRngBlock) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      Word* base = w + pos / 64;
      std::int32_t est = estimate_;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        est = jump_nibble(table, est, base, i, 4, trace);
      }
      if (i < n) est = jump_nibble(table, est, base, i, n - i, trace);
      estimate_ = est;
      regenerate(tfm_.aux_source(), base, trace, n);
    }
  }

  void finish() override { tfm_.set_estimate_fixed(estimate_); }

 private:
  core::TrackingForecastMemory& tfm_;
  std::shared_ptr<const std::vector<std::uint64_t>> jump_;
  std::int32_t estimate_;
};

/// Fused across the pair: one pass walks both inputs (the two estimate
/// chains are independent, so their jump loads overlap), then each stream
/// regenerates through its own aux source.
class TfmPairKernel final : public PairKernel {
 public:
  TfmPairKernel(core::TfmPair& pair,
                std::shared_ptr<const std::vector<std::uint64_t>> jump)
      : tfm_x_(pair.tfm_x()),
        tfm_y_(pair.tfm_y()),
        jump_(std::move(jump)),
        est_x_(pair.tfm_x().estimate_fixed()),
        est_y_(pair.tfm_y().estimate_fixed()) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    const std::uint64_t* table = jump_->data();
    std::uint16_t trace_x[kRngBlock];
    std::uint16_t trace_y[kRngBlock];
    for (std::size_t pos = 0; pos < bits; pos += kRngBlock) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      Word* xbase = xw + pos / 64;
      Word* ybase = yw + pos / 64;
      std::int32_t est_x = est_x_;
      std::int32_t est_y = est_y_;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        est_x = jump_nibble(table, est_x, xbase, i, 4, trace_x);
        est_y = jump_nibble(table, est_y, ybase, i, 4, trace_y);
      }
      if (i < n) {
        est_x = jump_nibble(table, est_x, xbase, i, n - i, trace_x);
        est_y = jump_nibble(table, est_y, ybase, i, n - i, trace_y);
      }
      est_x_ = est_x;
      est_y_ = est_y;
      regenerate(tfm_x_.aux_source(), xbase, trace_x, n);
      regenerate(tfm_y_.aux_source(), ybase, trace_y, n);
    }
  }

  void finish() override {
    tfm_x_.set_estimate_fixed(est_x_);
    tfm_y_.set_estimate_fixed(est_y_);
  }

 private:
  core::TrackingForecastMemory& tfm_x_;
  core::TrackingForecastMemory& tfm_y_;
  std::shared_ptr<const std::vector<std::uint64_t>> jump_;
  std::int32_t est_x_;
  std::int32_t est_y_;
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
    if (!shuffle_eligible(dec->depth())) return nullptr;
    return std::make_unique<DecorrelatorKernel>(*dec);
  }
  if (auto* link = dynamic_cast<core::DecorrelatorChainLink*>(&transform)) {
    if (!shuffle_eligible(link->buffer().depth())) return nullptr;
    return std::make_unique<ChainLinkKernel>(link->buffer());
  }
  if (auto* tfm = dynamic_cast<core::TfmPair*>(&transform)) {
    const auto& config = tfm->tfm_x().config();
    auto jump = tfm_jump_table(config.precision, config.shift);
    if (!jump) return nullptr;
    return std::make_unique<TfmPairKernel>(*tfm, std::move(jump));
  }
  return nullptr;
}

std::unique_ptr<StreamKernel> make_stream_kernel(
    core::StreamTransform& transform) {
  if (auto* buffer = dynamic_cast<core::ShuffleBuffer*>(&transform)) {
    if (!shuffle_eligible(buffer->depth())) return nullptr;
    return std::make_unique<ShuffleKernel>(*buffer);
  }
  if (auto* tfm = dynamic_cast<core::TrackingForecastMemory*>(&transform)) {
    auto jump = tfm_jump_table(tfm->config().precision, tfm->config().shift);
    if (!jump) return nullptr;
    return std::make_unique<TfmKernel>(*tfm, std::move(jump));
  }
  return nullptr;
}

}  // namespace sc::kernel
