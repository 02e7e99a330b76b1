/// \file simd.hpp
/// Runtime-dispatched SIMD shim for the word-parallel kernel datapath.
///
/// Every helper here is *exact*: the vector implementations are drop-in
/// replacements for the scalar loops they accelerate, bit-identical for
/// every input (the word paths' equivalence contract extends through
/// this shim).  Dispatch picks the widest tier the host supports at first
/// use — AVX-512 (F/BW/VL/DQ + BMI2), AVX2 + BMI2 + POPCNT, NEON on
/// aarch64, or plain scalar — and the `SC_SIMD` environment variable
/// overrides it:
///
///   SC_SIMD=off | scalar | 0    force the scalar reference loops
///   SC_SIMD=avx2                cap at the AVX2 tier (x86 only)
///   SC_SIMD=avx512 | on | auto  no cap (the default)
///
/// The override only picks the tier: every kernel and evaluator runs the
/// same word datapath at every tier.  With SC_SIMD=off each primitive
/// runs its scalar loop, so the conformance suites check the scalar side
/// of every primitive against the same bit-serial oracles.  The variable
/// is read once, at the first dispatch, and cached for the process
/// lifetime.

#pragma once

#include <cstddef>
#include <cstdint>

namespace sc::simd {

/// Instruction tiers the shim dispatches across, widest supported wins.
enum class Tier {
  kScalar = 0,  ///< portable reference loops (also the SC_SIMD=off tier)
  kNeon = 1,    ///< aarch64 NEON (packing helpers only; rest scalar)
  kAvx2 = 2,    ///< x86 AVX2 + BMI2 + POPCNT
  kAvx512 = 3,  ///< x86 AVX-512 F/BW/VL/DQ on top of the AVX2 tier
};

/// The tier in effect for this process (detection + SC_SIMD override,
/// resolved once and cached).
Tier active_tier();

/// Human-readable name of a tier ("scalar", "neon", "avx2", "avx512").
const char* tier_name(Tier tier);

// ------------------------------------------------------------ bit packing

/// ORs bit i = (vals[i] < level) into words[i/64] at bit i%64, i in [0, n).
/// Touched bit positions must be clear beforehand (the chunk sources zero
/// their buffers first).  The level is 64-bit so a width-32 source's full
/// scale, 2^32, is expressible: a level past every 32-bit value sets all
/// n bits.
void pack_compare_lt(const std::uint32_t* vals, std::size_t n,
                     std::uint64_t level, std::uint64_t* words);

/// ORs bit i = (int32(raw[i]) < thresh[i]) into words, same layout as
/// pack_compare_lt.  Signed compare — this is the TFM output rule, where
/// raw is the aux RNG draw and thresh the post-update estimate trace.
void pack_compare_trace(const std::uint32_t* raw, const std::uint16_t* thresh,
                        std::size_t n, std::uint64_t* words);

/// Byte-source variant of pack_compare_trace for aux values that fit a
/// byte (source width <= 8): bit i = (raw[i] < thresh[i]), raw
/// zero-extended, thresh at most 2^15 - 1 so the 16-bit signed compare
/// is exact.
void pack_compare_trace_u8(const std::uint8_t* raw,
                           const std::uint16_t* thresh, std::size_t n,
                           std::uint64_t* words);

// -------------------------------------------------------------- modulo

/// out[i] = vals[i] % bound, narrowed to bytes.  Requires bound in
/// [1, 255].  Exact for every 32-bit input: SIMD tiers use a per-bound
/// 2^20 magic that is verified exhaustively over the 16-bit domain the
/// first time a bound is seen and engage only when the caller-guaranteed
/// exclusive value bound fits 2^16; otherwise scalar Lemire reduction.
/// Pass value_bound = 0 for "unknown / full 32-bit domain".
void mod_bytes(const std::uint32_t* vals, std::size_t n, std::uint32_t bound,
               std::uint64_t value_bound, std::uint8_t* out);

// ------------------------------------------------------- shuffle datapath

/// Advances one shuffle buffer `n` cycles, word-parallel, in place.
/// words holds the input bits (bit i of the run at words[i/64] bit i%64);
/// bits at positions >= n in the final word are preserved.  r[i] is the
/// cycle-i address draw, already reduced to [0, depth].  *slots is the
/// slot-contents bitmask (bit s = slot s) and is updated to the final
/// state — the same encoding core::ShuffleBuffer uses.  depth in [1, 64].
///
/// Exact semantics per cycle (identical to core::ShuffleBuffer::step):
///   r == depth: out = in, slots unchanged;
///   r <  depth: out = slots[r], slots[r] = in.
///
/// The vector tiers decompose the buffer per slot class: positions with
/// r == s form a chain where each output is the previous input of the
/// same class (a depth-1 FIFO per class), which is one PEXT, one shifted
/// OR-in of the carry, and one PDEP per slot per word — no per-bit
/// dependency chain and no gather/scatter.  That is depth + 1 passes per
/// word, so their cost grows with depth while the plain per-bit update's
/// does not: they serve depths 1..63, and depth 64 runs the per-bit
/// update at every tier (as does the scalar tier at every depth).
void shuffle_words(std::uint64_t* words, const std::uint8_t* r, std::size_t n,
                   unsigned depth, std::uint64_t* slots);

}  // namespace sc::simd
