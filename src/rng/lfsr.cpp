#include "rng/lfsr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/simd.hpp"

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

/// Widths whose state cycle is stored as an orbit table (2^16 - 1 states,
/// 128 KiB of states plus 128 KiB of positions at the top width).
constexpr unsigned kMaxOrbitWidth = 16;

/// One period of a width's state cycle starting at state 1, and each
/// state's position on it (index[states[k]] == k).
struct Orbit {
  std::vector<std::uint16_t> states;
  std::vector<std::uint16_t> index;
};

Orbit build_orbit(unsigned width) {
  const std::uint32_t taps = kTapTable[width];
  const std::uint32_t mask = (std::uint32_t{1} << width) - 1;
  Orbit orbit;
  orbit.states.resize(mask);
  orbit.index.assign(std::size_t{mask} + 1, 0);
  std::uint32_t k = 0;
  std::uint32_t s = 1;
  do {
    orbit.states[k] = static_cast<std::uint16_t>(s);
    orbit.index[s] = static_cast<std::uint16_t>(k);
    s = fib_step(s, taps, mask);
  } while (s != 1 && ++k < mask);
  // Maximal taps return to state 1 after exactly 2^w - 1 steps, having
  // visited every nonzero state once.
  if (s != 1 || k + 1 != mask) {
    throw std::logic_error("rng::Lfsr: width-" + std::to_string(width) +
                           " taps do not give one cycle of 2^w - 1 states");
  }
  return orbit;
}

/// The process-wide orbit of a width (<= kMaxOrbitWidth), built on first
/// use.
const Orbit& orbit(unsigned width) {
  static std::array<std::once_flag, kMaxOrbitWidth + 1> once;
  static std::array<Orbit, kMaxOrbitWidth + 1> orbits;
  std::call_once(once[width], [width] { orbits[width] = build_orbit(width); });
  return orbits[width];
}

/// Output rotation of a register state; exact for rotation 0 as well,
/// since width <= kMaxOrbitWidth keeps every shift below 32.
inline std::uint32_t rotate_out(std::uint32_t s, unsigned rotation,
                                unsigned width, std::uint32_t mask) {
  return ((s >> rotation) | (s << (width - rotation))) & mask;
}

/// Walks the n orbit positions that start at `state` in runs that stop at
/// the wrap, calling copy(done, pos, take) for each run; returns the state
/// n steps on.
template <typename Copy>
std::uint32_t walk(const Orbit& orbit, std::uint32_t state, std::size_t n,
                   Copy&& copy) {
  const std::size_t period = orbit.states.size();
  std::size_t pos = orbit.index[state];
  for (std::size_t done = 0; done < n;) {
    const std::size_t take = std::min(n - done, period - pos);
    copy(done, pos, take);
    done += take;
    pos += take;
    if (pos == period) pos = 0;
  }
  return orbit.states[pos];
}

/// Shared table of rotate_out(states[k]) % bound along a width's orbit,
/// one per (width, rotation, bound), built on first use; bound 256 keeps
/// the raw value of registers up to 8 bits wide.
const std::uint8_t* orbit_bytes(unsigned width, unsigned rotation,
                                std::uint32_t bound) {
  const Orbit& o = orbit(width);
  static std::mutex mutex;
  static std::map<std::tuple<unsigned, unsigned, std::uint32_t>,
                  std::vector<std::uint8_t>>
      tables;
  std::lock_guard<std::mutex> lock(mutex);
  std::vector<std::uint8_t>& table = tables[{width, rotation, bound}];
  if (table.empty()) {
    const std::uint32_t mask = (std::uint32_t{1} << width) - 1;
    table.resize(o.states.size());
    for (std::size_t k = 0; k < o.states.size(); ++k) {
      table[k] = static_cast<std::uint8_t>(
          rotate_out(o.states[k], rotation, width, mask) % bound);
    }
  }
  return table.data();
}

/// Returns `width` if kTapTable has taps for it (3..32); throws otherwise.
unsigned checked_lfsr_width(unsigned width) {
  return checked_width("rng::Lfsr", width, 3, 32);
}

}  // namespace

std::uint32_t Lfsr::maximal_taps(unsigned width) {
  return kTapTable[checked_lfsr_width(width)];
}

Lfsr::Lfsr(unsigned width, std::uint32_t seed, unsigned rotation)
    : width_(checked_lfsr_width(width)),
      rotation_(rotation % width_),
      taps_(kTapTable[width_]),
      mask_(width_ == 32 ? ~0u : (1u << width_) - 1u) {
  seed &= mask_;
  if (seed == 0) seed = 1;  // the all-zero state is a fixed point
  seed_ = seed;
  state_ = seed;
}

void Lfsr::fill_compare_trace(std::uint64_t* words, const std::uint16_t* thresh,
                              std::size_t nbits) {
  if (width_ > 8) {
    RandomSource::fill_compare_trace(words, thresh, nbits);
    return;
  }
  constexpr std::size_t kBlock = 4096;
  std::uint8_t tmp[kBlock];
  for (std::size_t i = 0; i < nbits; i += kBlock) {
    const std::size_t n = std::min(nbits - i, kBlock);
    Lfsr::fill_indices(tmp, n, 256);  // bound 256 keeps the raw value
    simd::pack_compare_trace_u8(tmp, thresh + i, n, words + i / 64);
  }
}

void Lfsr::fill_indices(std::uint8_t* out, std::size_t n, std::uint32_t bound) {
  if (width_ > kMaxOrbitWidth) {
    RandomSource::fill_indices(out, n, bound);
    return;
  }
  if (bytes_bound_ != bound) {  // the table lock is taken once per bound
    bytes_ = orbit_bytes(width_, rotation_, bound);
    bytes_bound_ = bound;
  }
  const std::uint8_t* bytes = bytes_;
  state_ = walk(orbit(width_), state_, n,
                [&](std::size_t done, std::size_t pos, std::size_t take) {
                  std::memcpy(out + done, bytes + pos, take);
                });
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
  if (width_ > kMaxOrbitWidth) {
    for (std::size_t i = 0; i < n; ++i) out[i] = next();
    return;
  }
  const Orbit& o = orbit(width_);
  const std::uint16_t* states = o.states.data();
  const unsigned rot = rotation_;
  const unsigned width = width_;
  const std::uint32_t mask = mask_;
  state_ = walk(o, state_, n,
                [&](std::size_t done, std::size_t pos, std::size_t take) {
                  if (rot == 0) {  // widening copy: several times faster
                    std::copy_n(states + pos, take, out + done);
                    return;
                  }
                  for (std::size_t i = 0; i < take; ++i) {
                    out[done + i] =
                        rotate_out(states[pos + i], rot, width, mask);
                  }
                });
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
