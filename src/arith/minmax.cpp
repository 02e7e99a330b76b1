#include "arith/minmax.hpp"

#include "arith/gates.hpp"

namespace sc::arith {

Bitstream or_max(const Bitstream& x, const Bitstream& y) {
  return or_gate(x, y);
}

Bitstream and_min(const Bitstream& x, const Bitstream& y) {
  return and_gate(x, y);
}

Bitstream ca_max(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::arith::ca_max", x.size(), y.size());
  Bitstream out;
  out.reserve(x.size());
  CaMax unit;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(unit.step(x.get(i), y.get(i)));
  }
  return out;
}

Bitstream ca_min(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::arith::ca_min", x.size(), y.size());
  Bitstream out;
  out.reserve(x.size());
  CaMin unit;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(unit.step(x.get(i), y.get(i)));
  }
  return out;
}

}  // namespace sc::arith
