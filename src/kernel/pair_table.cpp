#include "kernel/pair_table.hpp"

namespace sc::kernel {

using Word = std::uint64_t;

unsigned run_pair_table(const PairNibbleTable& table, unsigned state,
                        const Word* x_in, const Word* y_in, Word* x_out,
                        Word* y_out, std::size_t bits) {
  std::size_t w = 0;
  for (; (w + 1) * 64 <= bits; ++w) {
    const Word xin = x_in[w];
    const Word yin = y_in[w];
    Word xout = 0;
    Word yout = 0;
    for (unsigned k = 0; k < 64; k += 4) {
      const auto xn = static_cast<unsigned>((xin >> k) & 0xF);
      const auto yn = static_cast<unsigned>((yin >> k) & 0xF);
      const PairNibbleTable::Entry e = table.lookup4(state, xn, yn);
      xout |= static_cast<Word>(e & 0xF) << k;
      yout |= static_cast<Word>((e >> 4) & 0xF) << k;
      state = e >> 8;
    }
    x_out[w] = xout;
    if (y_out != nullptr) y_out[w] = yout;
  }
  const auto rem = static_cast<unsigned>(bits - w * 64);
  if (rem != 0) {
    const Word xin = x_in[w];
    const Word yin = y_in[w];
    Word xout = 0;
    Word yout = 0;
    unsigned b = 0;
    for (; b + 4 <= rem; b += 4) {
      const auto xn = static_cast<unsigned>((xin >> b) & 0xF);
      const auto yn = static_cast<unsigned>((yin >> b) & 0xF);
      const PairNibbleTable::Entry e = table.lookup4(state, xn, yn);
      xout |= static_cast<Word>(e & 0xF) << b;
      yout |= static_cast<Word>((e >> 4) & 0xF) << b;
      state = e >> 8;
    }
    for (; b < rem; ++b) {
      const PairNibbleTable::Entry e = table.lookup1(
          state, ((xin >> b) & 1u) != 0, ((yin >> b) & 1u) != 0);
      xout |= static_cast<Word>(e & 1u) << b;
      yout |= static_cast<Word>((e >> 4) & 1u) << b;
      state = e >> 8;
    }
    const Word keep = ~Word{0} << rem;
    x_out[w] = (x_out[w] & keep) | xout;
    if (y_out != nullptr) y_out[w] = (y_out[w] & keep) | yout;
  }
  return state;
}

}  // namespace sc::kernel
