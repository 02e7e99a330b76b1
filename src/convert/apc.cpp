#include "convert/apc.hpp"

#include <stdexcept>
#include <string>

namespace sc::convert {

void Apc::step(sc::span<const bool> bits) {
  if (bits.size() != inputs_) {
    throw std::invalid_argument("convert::Apc::step: " +
                                std::to_string(bits.size()) + " bits for " +
                                std::to_string(inputs_) + " inputs");
  }
  for (bool b : bits) sum_ += b ? 1u : 0u;
  ++cycles_;
}

double Apc::mean_value() const {
  if (cycles_ == 0 || inputs_ == 0) return 0.0;
  // The bit-cycle denominator is formed in floating point: the integer
  // product inputs_ * cycles_ can wrap for wide counters driven at
  // engine-scale cycle counts, and a wrapped denominator silently
  // corrupts the mean instead of losing a little precision.
  return static_cast<double>(sum_) /
         (static_cast<double>(inputs_) * static_cast<double>(cycles_));
}

double apc_scaled_sum(sc::span<const Bitstream> streams) {
  if (streams.empty()) return 0.0;
  const std::size_t n = streams.front().size();
  std::uint64_t total = 0;
  for (const Bitstream& s : streams) {
    require_same_size("convert::apc_scaled_sum", s.size(), n);
    total += s.count_ones();
  }
  if (n == 0) return 0.0;
  // Same deliberate floating-point denominator as Apc::mean_value: k * N
  // overflows size_t for long-stream batch sweeps on 32-bit targets.
  return static_cast<double>(total) /
         (static_cast<double>(streams.size()) * static_cast<double>(n));
}

}  // namespace sc::convert
