/**
 * @file
 * Random memory-request generator shared by the memory-model
 * property tests and the model-level trace golden.
 */

#ifndef WIVLIW_TESTS_UTIL_MEM_TRAFFIC_HH
#define WIVLIW_TESTS_UTIL_MEM_TRAFFIC_HH

#include <cstdint>

#include "mem/mem_system.hh"
#include "support/random.hh"

namespace vliw::testutil {

/**
 * One request from a random cluster at cycle @p t: a 1-, 2-, 4- or
 * 8-byte element at a size-aligned address (so it never crosses a
 * block) over a @p footprint-byte region, a store with probability
 * 0.35.
 */
inline MemRequest
randomRequest(Rng &rng, Cycles t, std::uint64_t footprint = 16 * 1024)
{
    static const int sizes[] = {1, 2, 4, 8};
    MemRequest r;
    r.cluster = int(rng.nextBelow(4));
    r.size = sizes[rng.nextBelow(4)];
    const std::uint64_t elems = footprint / std::uint64_t(r.size);
    r.addr = rng.nextBelow(elems) * std::uint64_t(r.size);
    r.isStore = rng.chance(0.35);
    r.issueCycle = t;
    return r;
}

} // namespace vliw::testutil

#endif // WIVLIW_TESTS_UTIL_MEM_TRAFFIC_HH
