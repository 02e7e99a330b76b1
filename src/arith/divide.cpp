#include "arith/divide.hpp"

namespace sc::arith {

Bitstream divide(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::arith::divide", x.size(), y.size());
  Bitstream out;
  out.reserve(x.size());
  Cordiv div;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(div.step(x.get(i), y.get(i)));
  }
  return out;
}

}  // namespace sc::arith
