/// \file operators.hpp
/// Committed golden checksums of the library's whole-stream callers for
/// tests/golden_test.cpp's GoldenOperators suite (see README.md alongside
/// this file): the Fig. 5 operators and their serial compositions per
/// operand pair, and nn::forward_sc / func::resc_apply per strategy and
/// SNG width.  Entries reuse GoldenEntry: `program` is the operator
/// ("<function>" or "<function>/<stages or strategy>"), `backend` the
/// operand pair or "w<width>".  Regenerate with SC_GOLDEN_PRINT=1
/// ./golden_test ONLY for intentional bit-level changes, and commit the
/// diff with them.

#pragma once

#include "golden/corpus.hpp"

namespace sc::golden {

inline constexpr GoldenEntry kGoldenOperators[] = {
    {"sync_max", "vdc", 0x627CBE97A94D839BULL},
    {"sync_max", "halton", 0x7D7E10716DAAC667ULL},
    {"sync_max", "lfsr", 0x506DB8677F696530ULL},
    {"sync_min", "vdc", 0xE6EC5068CBBC2903ULL},
    {"sync_min", "halton", 0x95071A2BE24A171FULL},
    {"sync_min", "lfsr", 0x7D06D5BC85A90B57ULL},
    {"desync_saturating_add", "vdc", 0x8D93D9DDA4C71FA3ULL},
    {"desync_saturating_add", "halton", 0xAC5BCC2D57951A7BULL},
    {"desync_saturating_add", "lfsr", 0x8B0F0E55A056C2BFULL},
    {"sync_subtract", "vdc", 0xBF297D4578A9703BULL},
    {"sync_subtract", "halton", 0x8D960BB5472F366FULL},
    {"sync_subtract", "lfsr", 0x704AB2457F7FCFE4ULL},
    {"sync_divide", "vdc", 0x646DE2828EB03313ULL},
    {"sync_divide", "halton", 0x3DFF8ED9A4FD826FULL},
    {"sync_divide", "lfsr", 0x2ECA02014000F998ULL},
    {"compose_synchronizers/1", "vdc", 0x3F67F1118F3D1CEBULL},
    {"compose_synchronizers/1", "halton", 0xEC09B8CC69D05BAFULL},
    {"compose_synchronizers/1", "lfsr", 0x8B244AD8B9DF64C8ULL},
    {"compose_desynchronizers/1", "vdc", 0x603630CE551AC9EAULL},
    {"compose_desynchronizers/1", "halton", 0xF83D08FF841E8ECFULL},
    {"compose_desynchronizers/1", "lfsr", 0x1D62DAAC5B51FCD0ULL},
    {"compose_synchronizers/2", "vdc", 0x7FD12E3403C2848BULL},
    {"compose_synchronizers/2", "halton", 0xC8A604DA535B1788ULL},
    {"compose_synchronizers/2", "lfsr", 0x39DC3C6954C6C130ULL},
    {"compose_desynchronizers/2", "vdc", 0xD5745FEE5017B0D1ULL},
    {"compose_desynchronizers/2", "halton", 0xCE5DA1B0FE83B645ULL},
    {"compose_desynchronizers/2", "lfsr", 0x0C4086114B4DA864ULL},
    {"compose_synchronizers/3", "vdc", 0xBFD4FB77478CA847ULL},
    {"compose_synchronizers/3", "halton", 0xC999625A3A827364ULL},
    {"compose_synchronizers/3", "lfsr", 0x24DA4621461D8DF6ULL},
    {"compose_desynchronizers/3", "vdc", 0x467902BB751EC3FDULL},
    {"compose_desynchronizers/3", "halton", 0x20A355B46D81DD7CULL},
    {"compose_desynchronizers/3", "lfsr", 0xE0F98877245C6E64ULL},
    {"compose_synchronizers/4", "vdc", 0xF2A1F3793411BE8BULL},
    {"compose_synchronizers/4", "halton", 0xB86555EE3084AFA4ULL},
    {"compose_synchronizers/4", "lfsr", 0x5D927D937C8DEF52ULL},
    {"compose_desynchronizers/4", "vdc", 0x0F779320FBD7C308ULL},
    {"compose_desynchronizers/4", "halton", 0x5658220FBDBB3220ULL},
    {"compose_desynchronizers/4", "lfsr", 0xE15946ECB99B48D0ULL},
    {"forward_sc/two-rngs", "w3", 0xDE6045FD2D0666B1ULL},
    {"forward_sc/two-rngs", "w8", 0x262D1F553CD08CB8ULL},
    {"forward_sc/two-rngs", "w16", 0x079710CC062CBDE3ULL},
    {"forward_sc/two-rngs", "w31", 0x6F3606632DEB6555ULL},
    {"forward_sc/single-rng", "w3", 0xF495303792F52680ULL},
    {"forward_sc/single-rng", "w8", 0xCEC3026F3EDE1C8FULL},
    {"forward_sc/single-rng", "w16", 0x38BE110C642D6D13ULL},
    {"forward_sc/single-rng", "w31", 0x20D66546108DE3F7ULL},
    {"forward_sc/decorrelated", "w3", 0xC1ACBBDBC735B940ULL},
    {"forward_sc/decorrelated", "w8", 0x5E18E0AA9EA4D305ULL},
    {"forward_sc/decorrelated", "w16", 0x84229E4444209B70ULL},
    {"forward_sc/decorrelated", "w31", 0x5634B42E662CFD8FULL},
    {"resc_apply/independent", "w3", 0x39877ED9811A6AA8ULL},
    {"resc_apply/independent", "w8", 0x747EA80063FCB44AULL},
    {"resc_apply/independent", "w16", 0x14941F52B28D77E2ULL},
    {"resc_apply/independent", "w31", 0xC3ECFD12CD87F010ULL},
    {"resc_apply/shared", "w3", 0x1F04EBDCF48855BCULL},
    {"resc_apply/shared", "w8", 0x71BE1568218DDA9DULL},
    {"resc_apply/shared", "w16", 0x2C064B861F9A4DD0ULL},
    {"resc_apply/shared", "w31", 0x0F8D1D16B544C5B2ULL},
    {"resc_apply/decorrelator-chain", "w3", 0xDBBF1617380AE0A2ULL},
    {"resc_apply/decorrelator-chain", "w8", 0x7CC0097367CE2318ULL},
    {"resc_apply/decorrelator-chain", "w16", 0x3DE25B7208BD70ABULL},
    {"resc_apply/decorrelator-chain", "w31", 0x5A87CA549AF9676CULL},
};

}  // namespace sc::golden
