/// \file test_util.hpp
/// Shared helpers for the test suite: canonical stream generation from the
/// paper's RNG configurations, the bit-serial oracle for the circuits'
/// word paths, and a chunked driver.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "bitstream/bitstream.hpp"
#include "bitstream/synthesis.hpp"
#include "convert/sng.hpp"
#include "core/pair_transform.hpp"
#include "engine/chunked_stream.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"

namespace sc::test {

inline constexpr unsigned kWidth = 8;       // natural length 256
inline constexpr std::size_t kN = 256;      // paper's stream length

/// Stream of level x in [0, 256] from a fresh base-2 VDC sequence.
inline Bitstream vdc_stream(std::uint32_t level, std::size_t n = kN) {
  convert::Sng sng(std::make_unique<rng::VanDerCorput>(kWidth));
  return sng.generate(level, n);
}

/// Stream of level y in [0, 256] from a fresh base-3 Halton sequence
/// (the paper's second uncorrelated source).
inline Bitstream halton3_stream(std::uint32_t level, std::size_t n = kN) {
  convert::Sng sng(std::make_unique<rng::Halton>(kWidth, 3));
  return sng.generate(level, n);
}

/// Stream of level x from a fresh LFSR with the given seed.
inline Bitstream lfsr_stream(std::uint32_t level, std::uint32_t seed = 1,
                             std::size_t n = kN) {
  convert::Sng sng(std::make_unique<rng::Lfsr>(kWidth, seed));
  return sng.generate(level, n);
}

/// `n` bits of a comparator SNG at `level` over an LFSR, packed by one
/// engine::SngChunkSource chunk (the bits convert::Sng would generate).
inline Bitstream packed_lfsr_stream(unsigned width, std::uint32_t seed,
                                    unsigned rotation, std::uint64_t level,
                                    std::size_t n) {
  engine::SngChunkSource source(
      std::make_unique<rng::Lfsr>(width, seed, rotation), level, n);
  Bitstream out;
  source.next_chunk(out, n);
  return out;
}

/// Bit-serial oracle: begin_stream(), then the base
/// PairTransform::process called non-virtually — one step() per cycle,
/// whatever word path the circuit overrides it with.  core::apply runs
/// that word path; the two must agree bit for bit.
inline sc::StreamPair reference_apply(core::PairTransform& transform,
                                      const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::test::reference_apply", x.size(), y.size());
  sc::StreamPair out{x, y};
  transform.begin_stream(x.size());
  transform.core::PairTransform::process(out.x.word_data(),
                                         out.y.word_data(), x.size());
  return out;
}

/// Single-stream reference_apply.
inline Bitstream reference_apply(core::StreamTransform& transform,
                                 const Bitstream& x) {
  Bitstream out = x;
  transform.begin_stream(x.size());
  transform.core::StreamTransform::process(out.word_data(), x.size());
  return out;
}

/// Copies bits [from_pos, from_pos + n) of `from` into `to` at `to_pos`.
inline void copy_bits(const Bitstream& from, std::size_t from_pos,
                      Bitstream& to, std::size_t to_pos, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    to.set(to_pos + i, from.get(from_pos + i));
  }
}

/// Chunked core::apply, driven the way the executor drives a circuit:
/// begin_stream(total) once, then one process() call per chunk of
/// `chunk_bits` cycles (the last one shorter) with no reset between, so
/// state carries across chunk boundaries.  `stats`, when given, receives
/// the run's accounting; its peak counts both chunk buffers.
inline sc::StreamPair chunked_apply(core::PairTransform& transform,
                                    const Bitstream& x, const Bitstream& y,
                                    std::size_t chunk_bits,
                                    engine::ChunkedRunStats* stats = nullptr) {
  require_same_size("sc::test::chunked_apply", x.size(), y.size());
  engine::ChunkedRunStats run;
  sc::StreamPair out{Bitstream(x.size()), Bitstream(x.size())};
  transform.begin_stream(x.size());
  Bitstream cx;
  Bitstream cy;
  for (std::size_t pos = 0; pos < x.size(); pos += chunk_bits) {
    const std::size_t take = std::min(chunk_bits, x.size() - pos);
    cx.assign_zero(take);
    cy.assign_zero(take);
    copy_bits(x, pos, cx, 0, take);
    copy_bits(y, pos, cy, 0, take);
    transform.process(cx.word_data(), cy.word_data(), take);
    copy_bits(cx, 0, out.x, pos, take);
    copy_bits(cy, 0, out.y, pos, take);
    run.bits += take;
    ++run.chunks;
    run.peak_buffer_bits =
        std::max(run.peak_buffer_bits, cx.size() + cy.size());
  }
  if (stats != nullptr) *stats = run;
  return out;
}

/// Single-stream chunked_apply.
inline Bitstream chunked_apply(core::StreamTransform& transform,
                               const Bitstream& x, std::size_t chunk_bits) {
  Bitstream out(x.size());
  transform.begin_stream(x.size());
  Bitstream chunk;
  for (std::size_t pos = 0; pos < x.size(); pos += chunk_bits) {
    const std::size_t take = std::min(chunk_bits, x.size() - pos);
    chunk.assign_zero(take);
    copy_bits(x, pos, chunk, 0, take);
    transform.process(chunk.word_data(), take);
    copy_bits(chunk, 0, out, pos, take);
  }
  return out;
}

}  // namespace sc::test
