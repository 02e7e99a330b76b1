/// \file bipolar.hpp
/// Bipolar-encoded SC arithmetic (paper §II-A).
///
/// Bipolar streams map 1 -> +1 and 0 -> -1, so a stream with ones-fraction
/// p encodes v = 2p - 1 in [-1, +1].  The gate-level identities change:
/// multiply becomes XNOR, negation becomes NOT, and the MUX scaled adder
/// carries over unchanged (it averages the encoded values in either
/// encoding).  Correlation requirements carry over too: bipolar multiply
/// needs SCC = 0 exactly like unipolar multiply, which is why the paper's
/// manipulating circuits apply unchanged to bipolar pipelines.

#pragma once

#include "bitstream/bitstream.hpp"
#include "rng/random_source.hpp"

namespace sc::arith {

/// Bipolar negation: v -> -v (bitwise NOT).
Bitstream negate_bipolar(const Bitstream& x);

/// Bipolar scaled addition: z = 0.5 (vX + vY).  `sel` must be a half-weight
/// stream uncorrelated with both operands (same MUX as the unipolar adder).
/// The `sel_source` overloads here and below throw std::invalid_argument on
/// unequal operand sizes before drawing the select stream.
Bitstream scaled_add_bipolar(const Bitstream& x, const Bitstream& y,
                             const Bitstream& sel);
Bitstream scaled_add_bipolar(const Bitstream& x, const Bitstream& y,
                             rng::RandomSource& sel_source);

/// Bipolar scaled subtraction: z = 0.5 (vX - vY), a MUX with the Y leg
/// inverted.
Bitstream scaled_sub_bipolar(const Bitstream& x, const Bitstream& y,
                             const Bitstream& sel);
Bitstream scaled_sub_bipolar(const Bitstream& x, const Bitstream& y,
                             rng::RandomSource& sel_source);

}  // namespace sc::arith
