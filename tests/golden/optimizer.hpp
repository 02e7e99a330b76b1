/// \file optimizer.hpp
/// Committed golden checksums of opt::optimize's rewrite and report for
/// tests/golden_test.cpp's GoldenOptimizer suite (see README.md alongside
/// this file).  Entries reuse GoldenEntry: `program` is the workload
/// ("random-64" or an optimizer-bench program), `backend` is
/// "<strategy>/<optimizer config>".  Regenerate with SC_GOLDEN_PRINT=1
/// ./golden_test ONLY for intentional changes to the optimizer's output,
/// and commit the diff with them.

#pragma once

#include "golden/corpus.hpp"

namespace sc::golden {

inline constexpr GoldenEntry kGoldenOptimizer[] = {
    {"random-64", "manipulation/default", 0x03571FCD56A7F2D0ULL},
    {"random-64", "manipulation/bit-identical", 0xE2C8505233199A84ULL},
    {"random-64", "manipulation/error-budget-0.05", 0xA503728348D422B3ULL},
    {"random-64", "regeneration/default", 0xBB4DD246AAD40314ULL},
    {"random-64", "regeneration/bit-identical", 0xBE23D134869B1331ULL},
    {"random-64", "regeneration/error-budget-0.05", 0xF23C1A6949BC7275ULL},
    {"fanout-16", "manipulation/default", 0xEE59A3EA039FCA0BULL},
    {"fanout-16", "manipulation/bit-identical", 0xB53D15205DEA6B0FULL},
    {"fanout-16", "manipulation/error-budget-0.05", 0xAF0C7B9F06ED42E8ULL},
    {"fanout-16", "regeneration/default", 0x9F46176215043C90ULL},
    {"fanout-16", "regeneration/bit-identical", 0x9B4B9A5F03E5F605ULL},
    {"fanout-16", "regeneration/error-budget-0.05", 0x9F46176215043C90ULL},
    {"siblings", "manipulation/default", 0x107505F488C33705ULL},
    {"siblings", "manipulation/bit-identical", 0xD3FAFB90AABAB11CULL},
    {"siblings", "manipulation/error-budget-0.05", 0x59F0A7F090C95C7AULL},
    {"siblings", "regeneration/default", 0xF3640857DC65DC29ULL},
    {"siblings", "regeneration/bit-identical", 0xA5D68A332BCA8716ULL},
    {"siblings", "regeneration/error-budget-0.05", 0x145796E5FFC607ADULL},
    {"window", "manipulation/default", 0x3A8A43543DEA5DA8ULL},
    {"window", "manipulation/bit-identical", 0x6902D14449279D25ULL},
    {"window", "manipulation/error-budget-0.05", 0x3A8A43543DEA5DA8ULL},
    {"window", "regeneration/default", 0xDE3B5ECAEBEE56ADULL},
    {"window", "regeneration/bit-identical", 0x14529CC3F60F6A70ULL},
    {"window", "regeneration/error-budget-0.05", 0xDE3B5ECAEBEE56ADULL},
};

}  // namespace sc::golden
