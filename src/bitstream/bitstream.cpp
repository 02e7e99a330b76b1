#include "bitstream/bitstream.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace sc {

void require_same_size(const char* where, std::size_t a, std::size_t b) {
  if (a != b) {
    throw std::invalid_argument(std::string(where) + ": stream sizes differ (" +
                                std::to_string(a) + " vs " +
                                std::to_string(b) + ")");
  }
}

Bitstream::Bitstream(std::size_t length, bool fill)
    : words_(words_for(length), fill ? ~Word{0} : Word{0}), size_(length) {
  clear_tail();
}

Bitstream Bitstream::from_string(std::string_view bits) {
  Bitstream out;
  out.reserve(bits.size());
  for (char c : bits) {
    if (c == '0') {
      out.push_back(false);
    } else if (c == '1') {
      out.push_back(true);
    } else {
      break;
    }
  }
  return out;
}

Bitstream Bitstream::from_bits(std::initializer_list<int> bits) {
  Bitstream out;
  out.reserve(bits.size());
  for (int b : bits) out.push_back(b != 0);
  return out;
}

void Bitstream::push_back(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(Word{0});
  if (value) words_.back() |= Word{1} << (size_ % kWordBits);
  ++size_;
}

void Bitstream::reserve(std::size_t length) { words_.reserve(words_for(length)); }

void Bitstream::assign_zero(std::size_t length) {
  words_.assign(words_for(length), 0);
  size_ = length;
}

void Bitstream::clear() noexcept {
  words_.clear();
  size_ = 0;
}

std::size_t Bitstream::count_ones() const noexcept {
  std::size_t ones = 0;
  for (Word w : words_) ones += static_cast<std::size_t>(std::popcount(w));
  return ones;
}

double Bitstream::value() const noexcept {
  if (size_ == 0) return 0.0;
  return static_cast<double>(count_ones()) / static_cast<double>(size_);
}

double Bitstream::bipolar_value() const noexcept {
  if (size_ == 0) return 0.0;
  return 2.0 * value() - 1.0;
}

std::string Bitstream::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

void Bitstream::clear_tail() noexcept {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

Bitstream operator&(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::Bitstream operator&", x.size(), y.size());
  Bitstream out = x;
  out &= y;
  return out;
}

Bitstream operator|(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::Bitstream operator|", x.size(), y.size());
  Bitstream out = x;
  out |= y;
  return out;
}

Bitstream operator^(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::Bitstream operator^", x.size(), y.size());
  Bitstream out = x;
  out ^= y;
  return out;
}

Bitstream operator~(const Bitstream& x) {
  Bitstream out = x;
  for (auto& w : out.words_) w = ~w;
  out.clear_tail();
  return out;
}

Bitstream& Bitstream::operator&=(const Bitstream& y) {
  require_same_size("sc::Bitstream operator&=", size_, y.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= y.words_[i];
  return *this;
}

Bitstream& Bitstream::operator|=(const Bitstream& y) {
  require_same_size("sc::Bitstream operator|=", size_, y.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= y.words_[i];
  return *this;
}

Bitstream& Bitstream::operator^=(const Bitstream& y) {
  require_same_size("sc::Bitstream operator^=", size_, y.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= y.words_[i];
  return *this;
}

Bitstream Bitstream::mux(const Bitstream& x, const Bitstream& y,
                         const Bitstream& sel) {
  require_same_size("sc::Bitstream mux", x.size(), y.size());
  require_same_size("sc::Bitstream mux", x.size(), sel.size());
  Bitstream out(x.size());
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    out.words_[i] =
        (x.words_[i] & ~sel.words_[i]) | (y.words_[i] & sel.words_[i]);
  }
  return out;
}

Bitstream Bitstream::rotated(std::size_t k) const {
  Bitstream out(size_);
  if (size_ == 0) return out;
  k %= size_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.set(i, get((i + k) % size_));
  }
  return out;
}

Bitstream Bitstream::delayed(std::size_t k, bool pad) const {
  Bitstream out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.set(i, i < k ? pad : get(i - k));
  }
  return out;
}

}  // namespace sc
