#include "common/simd.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define SC_SIMD_X86 1
#include <immintrin.h>
#else
#define SC_SIMD_X86 0
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define SC_SIMD_NEON 1
#include <arm_neon.h>
#else
#define SC_SIMD_NEON 0
#endif

namespace sc::simd {
namespace {

// ----------------------------------------------------------------- dispatch

Tier detect_tier() {
#if SC_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2") &&
      __builtin_cpu_supports("popcnt")) {
    return Tier::kAvx2;
  }
  return Tier::kScalar;
#elif SC_SIMD_NEON
  return Tier::kNeon;
#else
  return Tier::kScalar;
#endif
}

Tier resolve_tier() {
  const Tier detected = detect_tier();
  const char* env = std::getenv("SC_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "off" || v == "scalar" || v == "0" || v == "false" || v == "none") {
    return Tier::kScalar;
  }
  if (v == "avx2") return detected < Tier::kAvx2 ? detected : Tier::kAvx2;
  if (v == "neon") return detected < Tier::kNeon ? detected : Tier::kNeon;
  // "on" / "auto" / "avx512" / anything unrecognized: widest supported.
  return detected;
}

// ----------------------------------------------------- scalar reference set
//
// Each vector implementation below must match its scalar twin bit-for-bit;
// tests/kernel_test.cpp re-runs the kernel conformance suite with
// SC_SIMD=off to enforce it end to end.

void pack_compare_lt_scalar(const std::uint32_t* vals, std::size_t n,
                            std::uint32_t level, std::uint64_t* words) {
  for (std::size_t i = 0; i < n; ++i) {
    words[i >> 6] |= static_cast<std::uint64_t>(vals[i] < level) << (i & 63);
  }
}

void pack_compare_trace_scalar(const std::uint32_t* raw,
                               const std::uint16_t* thresh, std::size_t n,
                               std::uint64_t* words) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit = static_cast<std::int32_t>(raw[i]) <
                     static_cast<std::int32_t>(thresh[i]);
    words[i >> 6] |= static_cast<std::uint64_t>(bit) << (i & 63);
  }
}

void pack_compare_trace_u8_scalar(const std::uint8_t* raw,
                                  const std::uint16_t* thresh, std::size_t n,
                                  std::uint64_t* words) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit = static_cast<std::int32_t>(raw[i]) <
                     static_cast<std::int32_t>(thresh[i]);
    words[i >> 6] |= static_cast<std::uint64_t>(bit) << (i & 63);
  }
}

void shuffle_words_scalar(std::uint64_t* words, const std::uint8_t* r,
                          std::size_t n, unsigned depth,
                          std::uint64_t* slots) {
  std::uint64_t mask = *slots;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned rv = r[i];
    std::uint64_t& word = words[i >> 6];
    const unsigned b = static_cast<unsigned>(i & 63);
    const std::uint64_t in = (word >> b) & 1u;
    std::uint64_t out;
    if (rv == depth) {
      out = in;
    } else {
      out = (mask >> rv) & 1u;
      mask = (mask & ~(std::uint64_t{1} << rv)) | (in << rv);
    }
    word = (word & ~(std::uint64_t{1} << b)) | (out << b);
  }
  *slots = mask;
}

// --------------------------------------------------------------- mod magic

/// 32-bit Lemire round-up magic for a byte-range divisor, or 0 when the
/// exhaustive check over the 16-bit value domain failed (the SIMD path
/// then stands down).  With M = floor((2^32 - 1) / d) + 1 the remainder is
/// mulhi32(M * v mod 2^32, d), exact for v < 2^16 whenever d <= 2^16 —
/// verified outright anyway the first time each divisor is seen.
std::uint32_t mod_magic(std::uint32_t bound) {
  static std::mutex mutex;
  static std::map<std::uint32_t, std::uint32_t> cache;
  std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(bound);
  if (it != cache.end()) return it->second;
  std::uint32_t magic = ~std::uint32_t{0} / bound + 1;
  for (std::uint32_t v = 0; v < (std::uint32_t{1} << 16); ++v) {
    const auto low = static_cast<std::uint32_t>(magic * v);
    const auto rem = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(low) * bound) >> 32);
    if (rem != v % bound) {
      magic = 0;
      break;
    }
  }
  cache.emplace(bound, magic);
  return magic;
}

void mod_bytes_scalar(const std::uint32_t* vals, std::size_t n,
                      std::uint32_t bound, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(vals[i] % bound);
  }
}

// ------------------------------------------------------------- x86 tiers

#if SC_SIMD_X86

__attribute__((target("avx2")))
void pack_compare_lt_avx2(const std::uint32_t* vals, std::size_t n,
                          std::uint32_t level, std::uint64_t* words) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vl =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(level)), bias);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < 64; k += 8) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(vals + i + k)),
          bias);
      const auto m = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vl, v))));
      w |= static_cast<std::uint64_t>(m) << k;
    }
    words[i >> 6] |= w;
  }
  if (i < n) pack_compare_lt_scalar(vals + i, n - i, level, words + (i >> 6));
}

__attribute__((target("avx512f")))
void pack_compare_lt_avx512(const std::uint32_t* vals, std::size_t n,
                            std::uint32_t level, std::uint64_t* words) {
  const __m512i vl = _mm512_set1_epi32(static_cast<int>(level));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < 64; k += 16) {
      const __m512i v = _mm512_loadu_si512(vals + i + k);
      w |= static_cast<std::uint64_t>(
               static_cast<std::uint16_t>(_mm512_cmplt_epu32_mask(v, vl)))
           << k;
    }
    words[i >> 6] |= w;
  }
  if (i < n) pack_compare_lt_scalar(vals + i, n - i, level, words + (i >> 6));
}

__attribute__((target("avx2")))
void pack_compare_trace_avx2(const std::uint32_t* raw,
                             const std::uint16_t* thresh, std::size_t n,
                             std::uint64_t* words) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < 64; k += 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(raw + i + k));
      const __m256i t = _mm256_cvtepu16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(thresh + i + k)));
      const auto m = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(t, v))));
      w |= static_cast<std::uint64_t>(m) << k;
    }
    words[i >> 6] |= w;
  }
  if (i < n) {
    pack_compare_trace_scalar(raw + i, thresh + i, n - i, words + (i >> 6));
  }
}

__attribute__((target("avx512f")))
void pack_compare_trace_avx512(const std::uint32_t* raw,
                               const std::uint16_t* thresh, std::size_t n,
                               std::uint64_t* words) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < 64; k += 16) {
      const __m512i v = _mm512_loadu_si512(raw + i + k);
      const __m512i t = _mm512_cvtepu16_epi32(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thresh + i + k)));
      w |= static_cast<std::uint64_t>(
               static_cast<std::uint16_t>(_mm512_cmpgt_epi32_mask(t, v)))
           << k;
    }
    words[i >> 6] |= w;
  }
  if (i < n) {
    pack_compare_trace_scalar(raw + i, thresh + i, n - i, words + (i >> 6));
  }
}

__attribute__((target("avx2,bmi2")))
void pack_compare_trace_u8_avx2(const std::uint8_t* raw,
                                const std::uint16_t* thresh, std::size_t n,
                                std::uint64_t* words) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < 64; k += 16) {
      const __m256i v = _mm256_cvtepu8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(raw + i + k)));
      const __m256i t = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thresh + i + k));
      const auto m = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpgt_epi16(t, v)));
      // movemask reports per byte; keep one bit per 16-bit lane.
      w |= _pext_u64(m, 0xAAAAAAAAu) << k;
    }
    words[i >> 6] |= w;
  }
  if (i < n) {
    pack_compare_trace_u8_scalar(raw + i, thresh + i, n - i, words + (i >> 6));
  }
}

__attribute__((target("avx512f,avx512bw")))
void pack_compare_trace_u8_avx512(const std::uint8_t* raw,
                                  const std::uint16_t* thresh, std::size_t n,
                                  std::uint64_t* words) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __mmask32 half[2];
    for (unsigned k = 0; k < 2; ++k) {
      const __m512i v = _mm512_cvtepu8_epi16(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(raw + i + 32 * k)));
      const __m512i t = _mm512_loadu_si512(thresh + i + 32 * k);
      half[k] = _mm512_cmpgt_epi16_mask(t, v);
    }
    // Join the halves in the mask domain: widening each 32-bit mask to an
    // integer first lets GCC 12 (-fsanitize=thread) spill it with a 32-bit
    // kmovd and reload it with a 64-bit mov, ORing stale stack bytes into
    // the high half of the word.
    words[i >> 6] |= _cvtmask64_u64(_mm512_kunpackd(half[1], half[0]));
  }
  if (i < n) {
    pack_compare_trace_u8_scalar(raw + i, thresh + i, n - i, words + (i >> 6));
  }
}

__attribute__((target("avx512f")))
void mod_bytes_avx512(const std::uint32_t* vals, std::size_t n,
                      std::uint32_t bound, std::uint32_t magic,
                      std::uint8_t* out) {
  const __m512i vm = _mm512_set1_epi32(static_cast<int>(magic));
  const __m512i vb = _mm512_set1_epi32(static_cast<int>(bound));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v = _mm512_loadu_si512(vals + i);
    const __m512i low = _mm512_mullo_epi32(v, vm);
    // Remainder = high 32 bits of low * bound, recombined across the
    // even/odd 64-bit product lanes.
    const __m512i pe = _mm512_mul_epu32(low, vb);
    const __m512i po = _mm512_mul_epu32(_mm512_srli_epi64(low, 32), vb);
    const __m512i rem =
        _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(pe, 32), po);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm512_cvtepi32_epi8(rem));
  }
  for (; i < n; ++i) out[i] = static_cast<std::uint8_t>(vals[i] % bound);
}

/// Scalar loop over the same verified magic (no hardware divide); used by
/// the AVX2 tier and as the vector tail.
void mod_bytes_magic_scalar(const std::uint32_t* vals, std::size_t n,
                            std::uint32_t bound, std::uint32_t magic,
                            std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto low = static_cast<std::uint32_t>(magic * vals[i]);
    out[i] = static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(low) * bound) >> 32);
  }
}

/// Word-parallel shuffle advance, one PEXT/PDEP pass per slot class per
/// word (see the header).  The carry bit of slot class s *is* slot s of
/// the buffer, so the in/out state is exactly the slots mask.
__attribute__((target("avx2,bmi2,popcnt")))
void shuffle_words_avx2(std::uint64_t* words, const std::uint8_t* r,
                        std::size_t n, unsigned depth, std::uint64_t* slots) {
  std::uint64_t carry = *slots;
  const std::size_t nwords = n >> 6;
  for (std::size_t wi = 0; wi < nwords; ++wi) {
    const std::uint64_t in = words[wi];
    const std::uint8_t* rw = r + wi * 64;
    const __m256i r0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rw));
    const __m256i r1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rw + 32));
    std::uint64_t out = 0;
    for (unsigned s = 0; s <= depth; ++s) {
      const __m256i vs = _mm256_set1_epi8(static_cast<char>(s));
      const auto m0 = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(r0, vs)));
      const auto m1 = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(r1, vs)));
      const std::uint64_t mask = m0 | (static_cast<std::uint64_t>(m1) << 32);
      if (s == depth) {
        out |= in & mask;  // pass-through class
        continue;
      }
      const std::uint64_t ext = _pext_u64(in, mask);
      const auto pc = static_cast<unsigned>(_mm_popcnt_u64(mask));
      out |= _pdep_u64((ext << 1) | ((carry >> s) & 1u), mask);
      if (pc != 0) {
        carry = (carry & ~(std::uint64_t{1} << s)) |
                (((ext >> (pc - 1)) & 1u) << s);
      }
    }
    words[wi] = out;
  }
  *slots = carry;
  const std::size_t done = nwords * 64;
  if (done < n) {
    shuffle_words_scalar(words + nwords, r + done, n - done, depth, slots);
  }
}

__attribute__((target("avx512f,avx512bw,bmi2,popcnt")))
void shuffle_words_avx512(std::uint64_t* words, const std::uint8_t* r,
                          std::size_t n, unsigned depth,
                          std::uint64_t* slots) {
  std::uint64_t carry = *slots;
  const std::size_t nwords = n >> 6;
  const __m512i vone = _mm512_set1_epi8(1);
  for (std::size_t wi = 0; wi < nwords; ++wi) {
    const std::uint64_t in = words[wi];
    const __m512i rz = _mm512_loadu_si512(r + wi * 64);
    __m512i vs = _mm512_setzero_si512();
    std::uint64_t out = 0;
    for (unsigned s = 0; s < depth; ++s) {
      const std::uint64_t mask =
          _cvtmask64_u64(_mm512_cmpeq_epi8_mask(rz, vs));
      vs = _mm512_add_epi8(vs, vone);
      const std::uint64_t ext = _pext_u64(in, mask);
      const auto pc = static_cast<unsigned>(_mm_popcnt_u64(mask));
      out |= _pdep_u64((ext << 1) | ((carry >> s) & 1u), mask);
      if (pc != 0) {
        carry = (carry & ~(std::uint64_t{1} << s)) |
                (((ext >> (pc - 1)) & 1u) << s);
      }
    }
    const std::uint64_t pass = _cvtmask64_u64(_mm512_cmpeq_epi8_mask(rz, vs));
    words[wi] = out | (in & pass);
  }
  *slots = carry;
  const std::size_t done = nwords * 64;
  if (done < n) {
    shuffle_words_scalar(words + nwords, r + done, n - done, depth, slots);
  }
}

#endif  // SC_SIMD_X86

#if SC_SIMD_NEON

void pack_compare_lt_neon(const std::uint32_t* vals, std::size_t n,
                          std::uint32_t level, std::uint64_t* words) {
  const uint32x4_t vl = vdupq_n_u32(level);
  const uint32x4_t weights = {1u, 2u, 4u, 8u};
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w = 0;
    for (unsigned k = 0; k < 64; k += 4) {
      const uint32x4_t v = vld1q_u32(vals + i + k);
      const uint32x4_t lt = vcltq_u32(v, vl);
      w |= static_cast<std::uint64_t>(vaddvq_u32(vandq_u32(lt, weights)))
           << k;
    }
    words[i >> 6] |= w;
  }
  if (i < n) pack_compare_lt_scalar(vals + i, n - i, level, words + (i >> 6));
}

#endif  // SC_SIMD_NEON

}  // namespace

Tier active_tier() {
  static const Tier tier = resolve_tier();
  return tier;
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kNeon:
      return "neon";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void pack_compare_lt(const std::uint32_t* vals, std::size_t n,
                     std::uint64_t level, std::uint64_t* words) {
  if (level > 0xFFFFFFFFu) {
    // Every 32-bit value compares below the level: set the n bits.
    for (std::size_t w = 0; w < n / 64; ++w) words[w] = ~std::uint64_t{0};
    if (n % 64 != 0) words[n / 64] |= (std::uint64_t{1} << (n % 64)) - 1;
    return;
  }
  const auto level32 = static_cast<std::uint32_t>(level);
  switch (active_tier()) {
#if SC_SIMD_X86
    case Tier::kAvx512:
      return pack_compare_lt_avx512(vals, n, level32, words);
    case Tier::kAvx2:
      return pack_compare_lt_avx2(vals, n, level32, words);
#endif
#if SC_SIMD_NEON
    case Tier::kNeon:
      return pack_compare_lt_neon(vals, n, level32, words);
#endif
    default:
      return pack_compare_lt_scalar(vals, n, level32, words);
  }
}

void pack_compare_trace(const std::uint32_t* raw, const std::uint16_t* thresh,
                        std::size_t n, std::uint64_t* words) {
  switch (active_tier()) {
#if SC_SIMD_X86
    case Tier::kAvx512:
      return pack_compare_trace_avx512(raw, thresh, n, words);
    case Tier::kAvx2:
      return pack_compare_trace_avx2(raw, thresh, n, words);
#endif
    default:
      return pack_compare_trace_scalar(raw, thresh, n, words);
  }
}

void pack_compare_trace_u8(const std::uint8_t* raw,
                           const std::uint16_t* thresh, std::size_t n,
                           std::uint64_t* words) {
  switch (active_tier()) {
#if SC_SIMD_X86
    case Tier::kAvx512:
      return pack_compare_trace_u8_avx512(raw, thresh, n, words);
    case Tier::kAvx2:
      return pack_compare_trace_u8_avx2(raw, thresh, n, words);
#endif
    default:
      return pack_compare_trace_u8_scalar(raw, thresh, n, words);
  }
}

void mod_bytes(const std::uint32_t* vals, std::size_t n, std::uint32_t bound,
               std::uint64_t value_bound, std::uint8_t* out) {
  if (bound == 1) {
    std::memset(out, 0, n);
    return;
  }
#if SC_SIMD_X86
  const Tier tier = active_tier();
  if (tier >= Tier::kAvx2 && value_bound != 0 &&
      value_bound <= (std::uint64_t{1} << 16)) {
    const std::uint32_t magic = mod_magic(bound);
    if (magic != 0) {
      if (tier == Tier::kAvx512) {
        mod_bytes_avx512(vals, n, bound, magic, out);
      } else {
        mod_bytes_magic_scalar(vals, n, bound, magic, out);
      }
      return;
    }
  }
#else
  (void)value_bound;
#endif
  mod_bytes_scalar(vals, n, bound, out);
}

void shuffle_words(std::uint64_t* words, const std::uint8_t* r, std::size_t n,
                   unsigned depth, std::uint64_t* slots) {
  // Depth 64 runs the per-bit loop at every tier (see the header).
  switch (depth < 64 ? active_tier() : Tier::kScalar) {
#if SC_SIMD_X86
    case Tier::kAvx512:
      return shuffle_words_avx512(words, r, n, depth, slots);
    case Tier::kAvx2:
      return shuffle_words_avx2(words, r, n, depth, slots);
#endif
    default:
      return shuffle_words_scalar(words, r, n, depth, slots);
  }
}

}  // namespace sc::simd
