/**
 * @file
 * Generic set-associative LRU tag array used by the interleaved and
 * unified cache models, the Attraction Buffers and the profiler.
 *
 * Storage is struct-of-arrays over flat index arithmetic (line =
 * set * ways + way). An invalid line holds the reserved key
 * kInvalidKey, so the hit test is a single key compare over a
 * contiguous run of keys. The hot path is one set walk per access:
 * lookup() either LRU-touches the hit line or returns the line a
 * fill would claim (the first invalid line, else the strict-LRU
 * victim), and fill() installs there without walking the set again.
 */

#ifndef WIVLIW_MEM_TAG_ARRAY_HH
#define WIVLIW_MEM_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

/** Maps a key to its set: a mask when the set count is a power of
 *  two, else a modulo (the geometries in between). */
class SetIndex
{
  public:
    explicit SetIndex(int sets)
        : sets_(std::uint64_t(sets)),
          mask_(isPowerOfTwo(sets_) ? sets_ - 1 : 0)
    {}

    int
    operator()(std::uint64_t key) const
    {
        return int(mask_ != 0 ? key & mask_ : key % sets_);
    }

    int sets() const { return int(sets_); }

  private:
    std::uint64_t sets_;
    /** sets_ - 1 when sets_ is a power of two above one, else 0. */
    std::uint64_t mask_;
};

/** Set-associative LRU directory over opaque 64-bit keys. */
class TagArray
{
  public:
    TagArray(int sets, int ways);

    /** Line handle: set * ways + way, or -1. */
    static constexpr int kNoLine = -1;

    /** Key reserved for invalid lines; never a valid key. */
    static constexpr std::uint64_t kInvalidKey = ~std::uint64_t(0);

    /** Find without touching LRU state. */
    int
    probe(std::uint64_t key) const
    {
        const int first = firstLineOf(key);
        for (int line = first; line < first + ways_; ++line) {
            if (keys_[std::size_t(line)] == key)
                return line;
        }
        return kNoLine;
    }

    /**
     * One walk of @p key's set. On a hit, sets @p hit, LRU-touches
     * the line and returns it. On a miss, clears @p hit and returns
     * the line a fill would claim: the first invalid line, else the
     * least recently used one (the first of equals).
     */
    int
    lookup(std::uint64_t key, bool &hit)
    {
        const int first = firstLineOf(key);
        int invalid = kNoLine;
        int victim = first;
        for (int line = first; line < first + ways_; ++line) {
            const std::uint64_t k = keys_[std::size_t(line)];
            if (k == key) {
                hit = true;
                lastUse_[std::size_t(line)] = ++useCounter_;
                return line;
            }
            if (k == kInvalidKey) {
                if (invalid == kNoLine)
                    invalid = line;
            } else if (lastUse_[std::size_t(line)] <
                       lastUse_[std::size_t(victim)]) {
                victim = line;
            }
        }
        hit = false;
        return invalid != kNoLine ? invalid : victim;
    }

    /**
     * Install @p key at @p line, the line a missed lookup(@p key)
     * returned with no tag change since. Records whether the
     * displaced line was dirty (see lastEvictionWasDirty()).
     */
    void
    fill(int line, std::uint64_t key)
    {
        vliw_assert(key != kInvalidKey, "fill with the reserved key");
        vliw_assert(line >= firstLineOf(key) &&
                    line < firstLineOf(key) + ways_,
                    "fill outside the key's set");
        const std::size_t l = std::size_t(line);
        evictedDirty_ = keys_[l] != kInvalidKey && dirty_[l] != 0;
        keys_[l] = key;
        dirty_[l] = 0;
        lastUse_[l] = ++useCounter_;
    }

    /** Drop @p key if present; true when something was removed. */
    bool invalidate(std::uint64_t key);

    /** True when @p line is a line handle that holds a key. */
    bool
    lineValid(int line) const
    {
        return line >= 0 && std::size_t(line) < keys_.size() &&
            keys_[std::size_t(line)] != kInvalidKey;
    }

    /// @name Dirty tracking (write-back caches)
    /// @{
    /** Mark @p line dirty; cleared automatically on fill. */
    void
    markDirty(int line)
    {
        vliw_assert(lineValid(line), "markDirty on invalid line");
        dirty_[std::size_t(line)] = 1;
    }
    /** Dirty state of the victim displaced by the last fill. */
    bool lastEvictionWasDirty() const { return evictedDirty_; }
    /// @}

    /** Invalidate everything. */
    void clear();

    /** clear() plus a rewind of the LRU clock: the array becomes
     *  indistinguishable from a freshly constructed one. */
    void reset();

    int sets() const { return setOf_.sets(); }
    int ways() const { return ways_; }
    int occupancy() const;

  private:
    int firstLineOf(std::uint64_t key) const { return setOf_(key) * ways_; }

    SetIndex setOf_;
    int ways_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useCounter_ = 0;
    bool evictedDirty_ = false;
};

} // namespace vliw

#endif // WIVLIW_MEM_TAG_ARRAY_HH
