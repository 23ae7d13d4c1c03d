#include "versioning.hh"

#include <algorithm>

#include "support/logging.hh"

// The build system injects both; the fallbacks keep ad-hoc builds
// (a bare compiler invocation) honest about what they are.
#ifndef WIVLIW_VERSION
#define WIVLIW_VERSION "0.0.0-dev"
#endif
#ifndef WIVLIW_BUILD_TYPE
#define WIVLIW_BUILD_TYPE "unknown"
#endif

namespace vliw {

const char *
libraryVersion()
{
    return WIVLIW_VERSION;
}

const char *
libraryBuildType()
{
    return WIVLIW_BUILD_TYPE[0] != '\0' ? WIVLIW_BUILD_TYPE
                                        : "unknown";
}

std::string
libraryVersionLine()
{
    return std::string("wivliw ") + libraryVersion() + " (" +
           libraryBuildType() + ")";
}

AccessRange
accessRange(const Ddg &ddg, const AddressResolver &resolver,
            NodeId v, std::int64_t iterations)
{
    // Exact sweep: kernel trip counts are small, and symbol
    // wrapping makes closed-form endpoint reasoning brittle.
    const MemAccessInfo &info = ddg.memInfo(v);
    AddressCursor cursor(resolver.stream(v));
    std::uint64_t lo = ~0ULL;
    std::uint64_t hi = 0;
    for (std::int64_t i = 0; i < std::max<std::int64_t>(1, iterations);
         ++i) {
        const std::uint64_t a = cursor.next(i);
        lo = std::min(lo, a);
        hi = std::max(hi, a);
    }
    return {lo, hi + std::uint64_t(info.granularity) - 1};
}

bool
chainsDynamicallyDisjoint(const Ddg &ddg, const MemChains &chains,
                          const AddressResolver &resolver,
                          std::int64_t iterations)
{
    for (int ch = 0; ch < chains.numChains(); ++ch) {
        const auto &members = chains.members(ch);
        if (members.size() < 2)
            continue;
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                const bool store_involved =
                    ddg.memInfo(members[i]).isStore ||
                    ddg.memInfo(members[j]).isStore;
                if (!store_involved)
                    continue;
                const AccessRange a = accessRange(
                    ddg, resolver, members[i], iterations);
                const AccessRange b = accessRange(
                    ddg, resolver, members[j], iterations);
                if (a.overlaps(b))
                    return false;
            }
        }
    }
    return true;
}

} // namespace vliw
