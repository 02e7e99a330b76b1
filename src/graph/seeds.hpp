/// \file seeds.hpp
/// Deterministic auxiliary-seed derivation for graph execution.
///
/// Every random decision a backend makes — input group traces, fix-circuit
/// RNGs, MUX select streams, operator-private generators — draws its seed
/// from one base seed mixed with a (node, role, lane) key.  The previous
/// scheme used ad-hoc offsets (`seed + 2001 + id` next to
/// `seed + 2001 + 2*id`), whose affine families collide across fix kinds
/// and node ids; here the key fields occupy disjoint bit ranges of a 64-bit
/// word, so distinct (node, role, lane) triples produce distinct keys, and
/// the SplitMix64 finalizer (a bijection on 64-bit words) maps distinct
/// keys under one base seed to distinct 64-bit seeds *by construction*.
/// backend.hpp's seed_sites() lists the (node, role, lane) key of every
/// generator a run constructs; tests/backend_test.cpp folds every site of
/// a large plan and asserts pairwise distinctness as a regression guard.
///
/// Width-masked consumers (rng::Lfsr keeps the low `width` bits) can still
/// alias in the masked space — unavoidable by pigeonhole — but the mix
/// removes the *structured* collisions of the affine scheme, and the
/// decorrelator's second source keeps its output rotation so even a masked
/// collision yields a distinct address schedule.

#pragma once

#include <cstdint>

namespace sc::graph::seeds {

/// What a derived seed is used for.  Values are stable identifiers baked
/// into the derivation key; append new roles, never renumber.
enum class Role : std::uint8_t {
  kGroupTrace = 1,  ///< input SNG trace of one RNG group (node = group id)
  kFixAuxA = 2,     ///< first aux RNG of an inserted fix (lane = pair index)
  kFixAuxB = 3,     ///< second aux RNG of an inserted fix
  kOpPrivate = 4,   ///< operator-private RNG (lane = evaluator slot)
};

/// SplitMix64 finalizer (Steele et al., the mixer job_seed also uses).
inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Packs (node, role, lane) into disjoint bit ranges: node in bits 32..63,
/// lane in bits 8..31 (pair or slot indices; < 2^24), role in bits 0..7.
/// Distinct triples -> distinct keys.
inline std::uint64_t seed_key(std::uint32_t node, Role role,
                              std::uint32_t lane) {
  return (static_cast<std::uint64_t>(node) << 32) |
         (static_cast<std::uint64_t>(lane & 0xFFFFFFu) << 8) |
         static_cast<std::uint64_t>(role);
}

/// Full-width derived seed: distinct (node, role, lane) under one base seed
/// give distinct results (XOR with a fixed base and SplitMix64 are both
/// bijections of the key).
inline std::uint64_t derive_seed(std::uint64_t base, std::uint32_t node,
                                 Role role, std::uint32_t lane = 0) {
  return splitmix64(base ^ seed_key(node, role, lane));
}

/// 32-bit fold for LFSR-style consumers; 0 remaps to 1 (rng::Lfsr treats a
/// masked-zero seed as 1, so two derived seeds must not alias through 0).
inline std::uint32_t derive_seed32(std::uint64_t base, std::uint32_t node,
                                   Role role, std::uint32_t lane = 0) {
  const std::uint64_t s = derive_seed(base, node, role, lane);
  const auto folded = static_cast<std::uint32_t>(s ^ (s >> 32));
  return folded == 0 ? 1u : folded;
}

}  // namespace sc::graph::seeds
