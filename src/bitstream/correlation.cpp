#include "bitstream/correlation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sc {

OverlapCounts overlap(const Bitstream& x, const Bitstream& y) {
  require_same_size("sc::overlap", x.size(), y.size());
  OverlapCounts counts;
  const auto& xw = x.words();
  const auto& yw = y.words();
  std::uint64_t a = 0;
  std::uint64_t ones_x = 0;
  std::uint64_t ones_y = 0;
  for (std::size_t i = 0; i < xw.size(); ++i) {
    a += static_cast<std::uint64_t>(std::popcount(xw[i] & yw[i]));
    ones_x += static_cast<std::uint64_t>(std::popcount(xw[i]));
    ones_y += static_cast<std::uint64_t>(std::popcount(yw[i]));
  }
  counts.a = a;
  counts.b = ones_x - a;
  counts.c = ones_y - a;
  counts.d = x.size() - ones_x - ones_y + a;
  return counts;
}

bool scc_defined(const OverlapCounts& k) {
  const std::uint64_t n = k.n();
  const std::uint64_t px = k.a + k.b;  // ones in X
  const std::uint64_t py = k.a + k.c;  // ones in Y
  return n > 0 && px > 0 && px < n && py > 0 && py < n;
}

bool scc_defined(const Bitstream& x, const Bitstream& y) {
  return scc_defined(overlap(x, y));
}

double scc(const OverlapCounts& k) {
  if (!scc_defined(k)) return 0.0;
  const double n = static_cast<double>(k.n());
  const double a = static_cast<double>(k.a);
  const double b = static_cast<double>(k.b);
  const double c = static_cast<double>(k.c);
  const double d = static_cast<double>(k.d);
  const double num = a * d - b * c;
  double denom = 0.0;
  if (num > 0.0) {
    denom = n * std::min(a + b, a + c) - (a + b) * (a + c);
  } else {
    denom = (a + b) * (a + c) - n * std::max(a - d, 0.0);
  }
  if (denom == 0.0) return 0.0;
  return num / denom;
}

double scc(const Bitstream& x, const Bitstream& y) {
  return scc(overlap(x, y));
}

double pearson(const Bitstream& x, const Bitstream& y) {
  const OverlapCounts k = overlap(x, y);
  const double n = static_cast<double>(k.n());
  if (n == 0.0) return 0.0;
  const double px = static_cast<double>(k.a + k.b) / n;
  const double py = static_cast<double>(k.a + k.c) / n;
  const double pxy = static_cast<double>(k.a) / n;
  const double vx = px * (1.0 - px);
  const double vy = py * (1.0 - py);
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return (pxy - px * py) / std::sqrt(vx * vy);
}

}  // namespace sc
