/// \file bitstream.hpp
/// Packed stochastic-number (SN) bitstream container.
///
/// A stochastic number is a finite sequence of bits whose *unipolar* value is
/// the fraction of 1s (range [0,1]) and whose *bipolar* value maps 1 -> +1 and
/// 0 -> -1 (range [-1,+1]).  All stochastic-computing circuits in this library
/// consume and produce `sc::Bitstream` objects (whole-stream API) or
/// individual bits (per-cycle API, see `sc::core`).
///
/// The representation is 64-bit-word packed so that combinational gates
/// (AND/OR/XOR/NOT/MUX) and population counts run word-parallel.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace sc {

/// Packed, dynamically sized bitstream.
///
/// Invariant: all bits at positions >= size() inside the last storage word are
/// zero ("tail bits are clear").  Every mutating operation preserves this so
/// that count_ones() and word-wise operators never see garbage tail bits.
class Bitstream {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  /// Creates an empty bitstream.
  Bitstream() = default;

  /// Creates a bitstream of `length` bits, all set to `fill`.
  explicit Bitstream(std::size_t length, bool fill = false);

  /// Parses a bitstream from a string of '0'/'1' characters.
  /// The leftmost character is bit index 0 (first in time), matching the
  /// notation used in the paper (e.g. "01000100" has value 0.25).
  /// Any character other than '0'/'1' terminates parsing.
  static Bitstream from_string(std::string_view bits);

  /// Builds a bitstream from a list of 0/1 integers (nonzero => 1).
  static Bitstream from_bits(std::initializer_list<int> bits);

  /// Number of bits in the stream.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reads the bit at position `i` (0-based).  Precondition: i < size().
  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  bool operator[](std::size_t i) const noexcept { return get(i); }

  /// Writes the bit at position `i`.  Precondition: i < size().
  void set(std::size_t i, bool value) noexcept {
    const Word mask = Word{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }

  /// Appends a bit at the end of the stream.
  void push_back(bool value);

  /// Pre-sizes the underlying storage for `length` bits.
  void reserve(std::size_t length);

  /// Resizes to `length` bits, all cleared.  Reuses existing capacity, so
  /// repeated calls (e.g. per-chunk buffers in the streaming engine) do
  /// not reallocate.
  void assign_zero(std::size_t length);

  /// Removes all bits.
  void clear() noexcept;

  /// Number of 1 bits.
  [[nodiscard]] std::size_t count_ones() const noexcept;
  /// Number of 0 bits.
  [[nodiscard]] std::size_t count_zeros() const noexcept { return size_ - count_ones(); }

  /// Unipolar value: count_ones() / size().  Returns 0 for an empty stream.
  [[nodiscard]] double value() const noexcept;
  /// Bipolar value: 2 * value() - 1.  Returns 0 for an empty stream.
  [[nodiscard]] double bipolar_value() const noexcept;

  /// Renders the stream as a '0'/'1' string, earliest bit first.
  [[nodiscard]] std::string to_string() const;

  /// Direct read access to the packed words (tail bits are guaranteed clear).
  const std::vector<Word>& words() const noexcept { return words_; }
  /// Mutable word pointer for word-parallel writers (process() word paths).
  /// Callers must keep the tail-bits-clear invariant: bits at positions
  /// >= size() in the last word stay zero.
  Word* word_data() noexcept { return words_.data(); }
  /// Number of storage words.
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }

  bool operator==(const Bitstream& other) const noexcept {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const Bitstream& other) const noexcept {
    return !(*this == other);
  }

  /// Word-parallel combinational gates.  Operand sizes must match
  /// (std::invalid_argument otherwise), here and in the compound forms.
  friend Bitstream operator&(const Bitstream& x, const Bitstream& y);
  friend Bitstream operator|(const Bitstream& x, const Bitstream& y);
  friend Bitstream operator^(const Bitstream& x, const Bitstream& y);
  /// Bitwise NOT; in unipolar encoding this computes 1 - value().
  friend Bitstream operator~(const Bitstream& x);

  Bitstream& operator&=(const Bitstream& y);
  Bitstream& operator|=(const Bitstream& y);
  Bitstream& operator^=(const Bitstream& y);

  /// Two-input multiplexer: out[i] = sel[i] ? y[i] : x[i].
  /// All three streams must have the same length (std::invalid_argument
  /// otherwise).  With an uncorrelated half-weight select stream this is
  /// the classic SC scaled adder.
  static Bitstream mux(const Bitstream& x, const Bitstream& y,
                       const Bitstream& sel);

  /// Returns the stream cyclically rotated left by `k` positions
  /// (bit i of the result is bit (i+k) mod size of the input).
  [[nodiscard]] Bitstream rotated(std::size_t k) const;

  /// Returns a copy delayed by `k` cycles: the first `k` output bits are
  /// `pad`, bit i (i >= k) of the result is input bit i - k.  Length is
  /// preserved (the last `k` input bits fall off).  This models a chain of k
  /// isolator D flip-flops initialized to `pad`.
  [[nodiscard]] Bitstream delayed(std::size_t k, bool pad = false) const;

 private:
  static std::size_t words_for(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }
  /// Clears bits at positions >= size_ in the last word.
  void clear_tail() noexcept;

  std::vector<Word> words_;
  std::size_t size_ = 0;
};

/// Throws std::invalid_argument naming `where` and both sizes unless
/// a == b.  Every entry point that walks two streams word by word calls
/// it in every build mode: an assert would compile away under NDEBUG and
/// leave the loop reading past the shorter stream.
void require_same_size(const char* where, std::size_t a, std::size_t b);

}  // namespace sc
