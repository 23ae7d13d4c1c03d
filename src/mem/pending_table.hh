/**
 * @file
 * Flat table of in-flight transactions (subblock fetches, block
 * fills) keyed by an opaque 64-bit id, each live until a completion
 * cycle. Semantically a map whose entries become invisible once
 * their cycle passes; physically a small flat vector that holds only
 * live entries: every set() drops the entries that have expired by
 * its cycle, so a find() scans just the handful of genuinely
 * concurrent transactions the memory latencies allow, and the
 * steady state allocates nothing.
 *
 * Dropping is exact because requests arrive in non-decreasing time
 * order (the lock-step core guarantees it): an entry expired at the
 * current access reads as absent to every later find() as well.
 */

#ifndef WIVLIW_MEM_PENDING_TABLE_HH
#define WIVLIW_MEM_PENDING_TABLE_HH

#include <cstdint>
#include <vector>

#include "support/stats.hh"

namespace vliw {

/** In-flight transactions: key -> completion cycle, expiring. */
class PendingTable
{
  public:
    /**
     * Completion cycle of a live entry for @p key, or nullptr when
     * none is in flight (absent or already completed by @p now).
     */
    const Cycles *
    find(std::uint64_t key, Cycles now) const
    {
        for (const Entry &e : entries_) {
            if (e.key == key)
                return e.until > now ? &e.until : nullptr;
        }
        return nullptr;
    }

    /**
     * Record that @p key is in flight until @p until, overwriting
     * any previous entry for the key, and drop every other entry
     * that has completed by @p now.
     */
    void
    set(std::uint64_t key, Cycles until, Cycles now)
    {
        std::size_t kept = 0;
        bool found = false;
        for (const Entry &e : entries_) {
            if (e.key == key) {
                found = true;
                entries_[kept++] = {key, until};
            } else if (e.until > now) {
                entries_[kept++] = e;
            }
        }
        entries_.resize(kept);
        if (!found)
            entries_.push_back({key, until});
    }

    /** Forget everything; capacity is kept. */
    void clear() { entries_.clear(); }

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::uint64_t key;
        Cycles until;
    };

    std::vector<Entry> entries_;
};

} // namespace vliw

#endif // WIVLIW_MEM_PENDING_TABLE_HH
