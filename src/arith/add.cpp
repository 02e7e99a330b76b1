#include "arith/add.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "arith/gates.hpp"
#include "common/simd.hpp"

namespace sc::arith {

void blur_select_masks(std::uint32_t* select, std::size_t n,
                       Bitstream::Word* masks, std::size_t stride) {
  // kBlurSelect is non-decreasing, so pixel k is picked exactly when the
  // select lies in [first_k, first_{k+1}): its mask is the difference of
  // two threshold masks [r < t], each one shim pack.
  static_assert(std::is_sorted(std::begin(kBlurSelect), std::end(kBlurSelect)));
  const std::size_t words = (n + 63) / 64;
  for (std::size_t i = 0; i < n; ++i) select[i] &= 15u;
  std::uint32_t end = 0;
  for (unsigned k = 0; k < 9; ++k) {
    while (end < 16 && kBlurSelect[end] == k) ++end;
    Bitstream::Word* below = masks + k * stride;
    std::fill_n(below, words, Bitstream::Word{0});
    simd::pack_compare_lt(select, n, end, below);
  }
  // Top down, so each threshold mask is still whole when the one above
  // subtracts it.
  for (std::size_t k = 8; k > 0; --k) {
    Bitstream::Word* mask = masks + k * stride;
    const Bitstream::Word* below = mask - stride;
    for (std::size_t i = 0; i < words; ++i) mask[i] &= ~below[i];
  }
}

Bitstream scaled_add(const Bitstream& x, const Bitstream& y,
                     const Bitstream& sel) {
  return Bitstream::mux(x, y, sel);
}

Bitstream scaled_add(const Bitstream& x, const Bitstream& y,
                     rng::RandomSource& sel_source) {
  assert(x.size() == y.size());
  Bitstream sel;
  sel.reserve(x.size());
  const std::uint32_t msb = 1u << (sel_source.width() - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    sel.push_back((sel_source.next() & msb) != 0);
  }
  return Bitstream::mux(x, y, sel);
}

Bitstream saturating_add(const Bitstream& x, const Bitstream& y) {
  return or_gate(x, y);
}

Bitstream toggle_add(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::arith::toggle_add", x.size(), y.size());
  Bitstream out;
  out.reserve(x.size());
  ToggleAdder adder;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(adder.step(x.get(i), y.get(i)));
  }
  return out;
}

}  // namespace sc::arith
