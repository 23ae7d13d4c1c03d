#include "tag_array.hh"

#include <algorithm>

namespace vliw {

TagArray::TagArray(int sets, int ways)
    : setOf_(sets), ways_(ways)
{
    vliw_assert(sets > 0 && ways > 0, "degenerate tag array ",
                sets, "x", ways);
    const std::size_t lines = static_cast<std::size_t>(sets) *
        static_cast<std::size_t>(ways);
    keys_.assign(lines, kInvalidKey);
    lastUse_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

bool
TagArray::invalidate(std::uint64_t key)
{
    const int line = probe(key);
    if (line == kNoLine)
        return false;
    keys_[std::size_t(line)] = kInvalidKey;
    return true;
}

void
TagArray::clear()
{
    std::fill(keys_.begin(), keys_.end(), kInvalidKey);
}

void
TagArray::reset()
{
    clear();
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t(0));
    std::fill(lastUse_.begin(), lastUse_.end(), std::uint64_t(0));
    useCounter_ = 0;
    evictedDirty_ = false;
}

int
TagArray::occupancy() const
{
    return int(std::count_if(keys_.begin(), keys_.end(),
                             [](std::uint64_t k) {
                                 return k != kInvalidKey;
                             }));
}

} // namespace vliw
