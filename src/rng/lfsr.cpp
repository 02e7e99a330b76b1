#include "rng/lfsr.hpp"

#include <array>
#include <bit>
#include "common/simd.hpp"
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sc::rng {
namespace {

/// Maximal-period feedback taps for Fibonacci LFSRs of width 3..32
/// (XAPP052-style tap positions, stored as a mask with bit p-1 set for each
/// 1-indexed tap position p; feedback is the XOR of the tapped bits and is
/// shifted into the LSB).
constexpr std::array<std::uint32_t, 33> kTapTable = [] {
  std::array<std::uint32_t, 33> t{};
  auto mask = [](std::initializer_list<unsigned> taps) {
    std::uint32_t m = 0;
    for (unsigned p : taps) m |= 1u << (p - 1);
    return m;
  };
  t[3] = mask({3, 2});
  t[4] = mask({4, 3});
  t[5] = mask({5, 3});
  t[6] = mask({6, 5});
  t[7] = mask({7, 6});
  t[8] = mask({8, 6, 5, 4});
  t[9] = mask({9, 5});
  t[10] = mask({10, 7});
  t[11] = mask({11, 9});
  t[12] = mask({12, 6, 4, 1});
  t[13] = mask({13, 4, 3, 1});
  t[14] = mask({14, 5, 3, 1});
  t[15] = mask({15, 14});
  t[16] = mask({16, 15, 13, 4});
  t[17] = mask({17, 14});
  t[18] = mask({18, 11});
  t[19] = mask({19, 6, 2, 1});
  t[20] = mask({20, 17});
  t[21] = mask({21, 19});
  t[22] = mask({22, 21});
  t[23] = mask({23, 18});
  t[24] = mask({24, 23, 22, 17});
  t[25] = mask({25, 22});
  t[26] = mask({26, 6, 2, 1});
  t[27] = mask({27, 5, 2, 1});
  t[28] = mask({28, 25});
  t[29] = mask({29, 27});
  t[30] = mask({30, 6, 4, 1});
  t[31] = mask({31, 28});
  t[32] = mask({32, 22, 2, 1});
  return t;
}();

/// One Fibonacci step (the update inside next(), as a free function).
inline std::uint32_t fib_step(std::uint32_t state, std::uint32_t taps,
                              std::uint32_t mask) {
  const auto feedback =
      static_cast<std::uint32_t>(std::popcount(state & taps) & 1);
  return ((state << 1) | feedback) & mask;
}

/// Lanes advanced in parallel by fill(): the register update is linear
/// over GF(2), so "advance kLeapLanes steps" is a matrix A^kLeapLanes that
/// byte-sliced tables apply in 4 lookups + 3 XORs.  Eight lanes starting
/// at consecutive offsets then emit the exact next()-sequence without the
/// per-step feedback dependency chain, which is what makes block fills
/// several times faster than serial stepping.
constexpr unsigned kLeapLanes = 8;

struct LeapTable {
  std::uint32_t bytes[4][256];

  [[nodiscard]] std::uint32_t advance(std::uint32_t state) const {
    return bytes[0][state & 0xFFu] ^ bytes[1][(state >> 8) & 0xFFu] ^
           bytes[2][(state >> 16) & 0xFFu] ^ bytes[3][state >> 24];
  }
};

/// Jump-ahead tables per register width (taps and mask are functions of
/// the width, so the cache key is just the width).
const LeapTable& leap_table(unsigned width, std::uint32_t taps,
                            std::uint32_t mask) {
  static std::mutex mutex;
  static std::map<unsigned, std::unique_ptr<const LeapTable>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(width);
  if (it != cache.end()) return *it->second;

  auto table = std::make_unique<LeapTable>();
  std::uint32_t column[32] = {};
  for (unsigned bit = 0; bit < width; ++bit) {
    std::uint32_t s = std::uint32_t{1} << bit;
    for (unsigned k = 0; k < kLeapLanes; ++k) s = fib_step(s, taps, mask);
    column[bit] = s;
  }
  for (unsigned k = 0; k < 4; ++k) {
    for (unsigned b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (unsigned j = 0; j < 8; ++j) {
        const unsigned bit = k * 8 + j;
        if (((b >> j) & 1u) != 0 && bit < width) v ^= column[bit];
      }
      table->bytes[k][b] = v;
    }
  }
  const LeapTable& ref = *table;
  cache.emplace(width, std::move(table));
  return ref;
}

/// Returns `width` if kTapTable has taps for it (3..32); throws otherwise.
unsigned checked_width(unsigned width) {
  if (width < 3 || width > 32) {
    throw std::invalid_argument("rng::Lfsr: width " + std::to_string(width) +
                                " is outside 3..32");
  }
  return width;
}

}  // namespace

std::uint32_t Lfsr::maximal_taps(unsigned width) {
  return kTapTable[checked_width(width)];
}

/// Memoized period of the register: `vals` holds one full cycle of emitted
/// values starting from the state the ring was built at, plus lazily-derived
/// replay caches (packed comparator bits for one level, reduced address
/// bytes for one bound, narrowed raw bytes).  The derived caches are keyed
/// by the parameter they were built for and rebuilt on change — in practice
/// each register instance serves one SNG level or one shuffle depth for its
/// whole life, so each cache is built once.
struct Lfsr::Ring {
  std::vector<std::uint16_t> vals;  ///< one period, rotation applied
  std::size_t period = 0;

  std::vector<std::uint64_t> cmp;  ///< bit i = vals[i] < cmp_level
  std::uint64_t cmp_level = 0;
  bool cmp_ready = false;

  std::vector<std::uint8_t> idx;  ///< vals[i] % idx_bound
  std::uint32_t idx_bound = 0;

  std::vector<std::uint8_t> bytes;  ///< vals narrowed (width <= 8 only)
  bool bytes_ready = false;
};

Lfsr::Lfsr(unsigned width, std::uint32_t seed, unsigned rotation)
    : width_(checked_width(width)),
      rotation_(rotation % width_),
      taps_(kTapTable[width_]),
      mask_(width_ == 32 ? ~0u : (1u << width_) - 1u) {
  seed &= mask_;
  if (seed == 0) seed = 1;  // the all-zero state is a fixed point
  seed_ = seed;
  state_ = seed;
}

Lfsr::Lfsr(const Lfsr& other)
    : width_(other.width_),
      rotation_(other.rotation_),
      taps_(other.taps_),
      seed_(other.seed_),
      state_(other.state_),
      mask_(other.mask_),
      ring_(other.ring_ ? std::make_unique<Ring>(*other.ring_) : nullptr),
      word_demand_(other.word_demand_),
      ring_failed_(other.ring_failed_),
      ring_pos_(other.ring_pos_),
      ring_pos_state_(other.ring_pos_state_),
      ring_pos_valid_(other.ring_pos_valid_) {}

Lfsr::~Lfsr() = default;

bool Lfsr::ring_ready(std::size_t demand) {
  if (ring_) return true;
  if (ring_failed_ || width_ > 16) return false;
  word_demand_ += demand;
  if (word_demand_ < mask_) return false;
  build_ring();
  return ring_ != nullptr;
}

void Lfsr::build_ring() {
  const std::uint32_t start = state_;
  auto ring = std::make_unique<Ring>();
  ring->vals.reserve(mask_);
  std::uint32_t s = start;
  do {
    if (ring->vals.size() >= mask_ && s != start) {
      // More states than the register has nonzero values without closing
      // the cycle: the orbit is not purely periodic from here (cannot
      // happen with the maximal-tap table, but guard rather than trust).
      ring_failed_ = true;
      return;
    }
    ring->vals.push_back(static_cast<std::uint16_t>(emit(s)));
    s = fib_step(s, taps_, mask_);
  } while (s != start);
  ring->period = ring->vals.size();
  ring_ = std::move(ring);
  ring_pos_ = 0;
  ring_pos_state_ = start;
  ring_pos_valid_ = true;
}

bool Lfsr::sync_ring_pos() {
  if (ring_pos_valid_ && ring_pos_state_ == state_) return true;
  // The register was stepped (next()) or reset since the last word call:
  // find the current state on the ring.  Emitted values are distinct on
  // the orbit (states are distinct and the rotation is a bijection), so
  // the scan is unambiguous.
  const std::uint16_t want = static_cast<std::uint16_t>(emit(state_));
  const auto& vals = ring_->vals;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (vals[i] == want) {
      ring_pos_ = i;
      ring_pos_state_ = state_;
      ring_pos_valid_ = true;
      return true;
    }
  }
  return false;  // off-orbit state: serve this call through the base path
}

void Lfsr::advance_ring(std::size_t n) {
  ring_pos_ = (ring_pos_ + n) % ring_->period;
  state_ = unemit(ring_->vals[ring_pos_]);
  ring_pos_state_ = state_;
  ring_pos_valid_ = true;
}

void Lfsr::fill_compare(std::uint64_t* words, std::size_t nbits,
                        std::uint64_t level) {
  if (nbits == 0) return;
  if (!ring_ready(nbits) || !sync_ring_pos()) {
    RandomSource::fill_compare(words, nbits, level);
    return;
  }
  Ring& ring = *ring_;
  if (level >= range()) {
    // All-ones output; just move the cursor nbits values forward.
    std::size_t w = 0;
    for (; (w + 1) * 64 <= nbits; ++w) words[w] = ~std::uint64_t{0};
    if (nbits % 64 != 0) words[w] |= (std::uint64_t{1} << (nbits % 64)) - 1;
    advance_ring(nbits);
    return;
  }
  if (!ring.cmp_ready || ring.cmp_level != level) {
    ring.cmp.assign((ring.period + 63) / 64, 0);
    for (std::size_t i = 0; i < ring.period; ++i) {
      ring.cmp[i >> 6] |=
          static_cast<std::uint64_t>(ring.vals[i] < level ? 1 : 0) << (i & 63);
    }
    ring.cmp_level = level;
    ring.cmp_ready = true;
  }
  std::size_t done = 0;
  std::size_t pos = ring_pos_;
  while (done < nbits) {
    const std::size_t take =
        nbits - done < ring.period - pos ? nbits - done : ring.period - pos;
    simd::or_copy_bits(words, done, ring.cmp.data(), pos, take);
    pos += take;
    if (pos == ring.period) pos = 0;
    done += take;
  }
  advance_ring(nbits);
}

void Lfsr::fill_compare_trace(std::uint64_t* words, const std::uint16_t* thresh,
                              std::size_t nbits) {
  if (nbits == 0) return;
  if (width_ > 8 || !ring_ready(nbits) || !sync_ring_pos()) {
    RandomSource::fill_compare_trace(words, thresh, nbits);
    return;
  }
  Ring& ring = *ring_;
  if (!ring.bytes_ready) {
    ring.bytes.assign(ring.vals.begin(), ring.vals.end());
    ring.bytes_ready = true;
  }
  constexpr std::size_t kBlock = 4096;
  std::uint8_t tmp[kBlock];
  std::size_t pos = ring_pos_;
  for (std::size_t i = 0; i < nbits; i += kBlock) {
    const std::size_t n = nbits - i < kBlock ? nbits - i : kBlock;
    std::size_t got = 0;
    while (got < n) {
      const std::size_t take =
          n - got < ring.period - pos ? n - got : ring.period - pos;
      std::memcpy(tmp + got, ring.bytes.data() + pos, take);
      pos += take;
      if (pos == ring.period) pos = 0;
      got += take;
    }
    simd::pack_compare_trace_u8(tmp, thresh + i, n, words + i / 64);
  }
  advance_ring(nbits);
}

void Lfsr::fill_indices(std::uint8_t* out, std::size_t n, std::uint32_t bound) {
  if (n == 0) return;
  if (!ring_ready(n) || !sync_ring_pos()) {
    RandomSource::fill_indices(out, n, bound);
    return;
  }
  Ring& ring = *ring_;
  if (ring.idx_bound != bound) {
    ring.idx.resize(ring.period);
    for (std::size_t i = 0; i < ring.period; ++i) {
      ring.idx[i] = static_cast<std::uint8_t>(ring.vals[i] % bound);
    }
    ring.idx_bound = bound;
  }
  std::size_t done = 0;
  std::size_t pos = ring_pos_;
  while (done < n) {
    const std::size_t take =
        n - done < ring.period - pos ? n - done : ring.period - pos;
    std::memcpy(out + done, ring.idx.data() + pos, take);
    pos += take;
    if (pos == ring.period) pos = 0;
    done += take;
  }
  advance_ring(n);
}

std::uint32_t Lfsr::next() {
  const std::uint32_t out = state_;
  const std::uint32_t feedback =
      static_cast<std::uint32_t>(std::popcount(state_ & taps_) & 1);
  state_ = ((state_ << 1) | feedback) & mask_;
  if (rotation_ == 0) return out;
  return ((out >> rotation_) | (out << (width_ - rotation_))) & mask_;
}

void Lfsr::fill(std::uint32_t* out, std::size_t n) {
  std::uint32_t state = state_;
  const std::uint32_t taps = taps_;
  const std::uint32_t mask = mask_;
  const unsigned rot = rotation_;
  const unsigned inv = width_ - rot;
  const auto emit = [rot, inv, mask](std::uint32_t s) {
    return rot == 0 ? s : (((s >> rot) | (s << inv)) & mask);
  };

  std::size_t i = 0;
  if (n >= 4 * kLeapLanes) {
    // Jump-ahead path: lane j holds the register kLeapLanes*r + j steps
    // ahead of state_, so each round emits kLeapLanes in-order values and
    // advances every lane independently (no cross-lane dependency chain).
    const LeapTable& leap = leap_table(width_, taps, mask);
    std::uint32_t lane[kLeapLanes];
    lane[0] = state;
    for (unsigned j = 1; j < kLeapLanes; ++j) {
      lane[j] = fib_step(lane[j - 1], taps, mask);
    }
    for (; i + kLeapLanes <= n; i += kLeapLanes) {
      for (unsigned j = 0; j < kLeapLanes; ++j) out[i + j] = emit(lane[j]);
      for (unsigned j = 0; j < kLeapLanes; ++j) {
        lane[j] = leap.advance(lane[j]);
      }
    }
    state = lane[0];  // register after i = (n / kLeapLanes) * kLeapLanes steps
  }
  // Serial path: short fills and the sub-lane tail.
  for (; i < n; ++i) {
    out[i] = emit(state);
    state = fib_step(state, taps, mask);
  }
  state_ = state;
}

std::unique_ptr<RandomSource> Lfsr::clone() const {
  return std::make_unique<Lfsr>(*this);
}

std::string Lfsr::name() const {
  std::ostringstream os;
  os << "lfsr" << width_ << "(seed=0x" << std::hex << seed_;
  if (rotation_ != 0) os << std::dec << ",rot=" << rotation_;
  os << ")";
  return os.str();
}

}  // namespace sc::rng
