#include "arith/bipolar.hpp"

#include "arith/add.hpp"
#include "arith/gates.hpp"

namespace sc::arith {
namespace {

Bitstream select_stream(rng::RandomSource& source, std::size_t n) {
  Bitstream sel;
  sel.reserve(n);
  const std::uint32_t msb = 1u << (source.width() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    sel.push_back((source.next() & msb) != 0);
  }
  return sel;
}

}  // namespace

Bitstream negate_bipolar(const Bitstream& x) { return ~x; }

Bitstream scaled_add_bipolar(const Bitstream& x, const Bitstream& y,
                             const Bitstream& sel) {
  return Bitstream::mux(x, y, sel);
}

Bitstream scaled_add_bipolar(const Bitstream& x, const Bitstream& y,
                             rng::RandomSource& sel_source) {
  require_same_size("sc::arith::scaled_add_bipolar", x.size(), y.size());
  return Bitstream::mux(x, y, select_stream(sel_source, x.size()));
}

Bitstream scaled_sub_bipolar(const Bitstream& x, const Bitstream& y,
                             const Bitstream& sel) {
  return Bitstream::mux(x, ~y, sel);
}

Bitstream scaled_sub_bipolar(const Bitstream& x, const Bitstream& y,
                             rng::RandomSource& sel_source) {
  require_same_size("sc::arith::scaled_sub_bipolar", x.size(), y.size());
  return Bitstream::mux(x, ~y, select_stream(sel_source, x.size()));
}

}  // namespace sc::arith
