/// \file regenerator.hpp
/// Regeneration: the expensive baseline correlation "reset" the paper's
/// circuits replace (paper §II-B, Ting & Hayes ICCD 2016).
///
/// A regenerator converts a stream back to binary with an S/D counter and
/// re-encodes it with a D/S converter.  The re-encoded stream's correlation
/// with any other stream is then dictated purely by the D/S RNGs: sharing
/// one RNG across all regenerated streams yields SCC = +1 between them;
/// distinct low-discrepancy RNGs yield SCC near 0.
///
/// Regeneration needs the full stream before it can emit (the counter must
/// finish), so in hardware it also doubles latency; the cost model accounts
/// an S/D counter + D/S comparator + (amortized) RNG per regenerated stream.

#pragma once

#include <cstddef>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "common/span.hpp"
#include "convert/sng.hpp"
#include "rng/random_source.hpp"

namespace sc::convert {

/// Regenerates one stream: S/D count, then D/S re-encode with `source`.
/// The output has the same length and (exactly) the same number of 1s as the
/// input iff the source is a full-period permutation source (VDC, counter);
/// otherwise the value matches in expectation.
Bitstream regenerate(const Bitstream& input, rng::RandomSource& source);

/// Regenerates a whole bus of streams from a single shared RNG, which is the
/// paper's "induce positive correlation between all SNs" configuration: all
/// outputs are pairwise SCC = +1.  Streams of unequal length throw
/// std::invalid_argument.  (Decorrelating regeneration is one regenerate()
/// call per stream, each with its own source.)
std::vector<Bitstream> regenerate_bus_correlated(
    const std::vector<Bitstream>& inputs, rng::RandomSource& shared_source);

/// In-place word form of the above over packed n-bit streams whose tail
/// bits are clear: counts each stream's 1s, then rewrites the stream from
/// one shared trace of n draws (none for an empty bus).
void regenerate_bus_correlated(sc::span<Bitstream::Word* const> streams,
                               std::size_t n,
                               rng::RandomSource& shared_source);

}  // namespace sc::convert
