/**
 * @file
 * Attraction Buffer (paper Section 3): a small per-cluster buffer
 * that replicates whole remote subblocks. A remote access attracts
 * the subblock so the next access to it from this cluster is local.
 * Buffers are flushed at loop boundaries; correctness inside a loop
 * follows from the memory-dependent-chain scheduling constraint.
 */

#ifndef WIVLIW_MEM_ATTRACTION_BUFFER_HH
#define WIVLIW_MEM_ATTRACTION_BUFFER_HH

#include <cstdint>

#include "mem/tag_array.hh"
#include "support/stats.hh"

namespace vliw {

/** One cluster's attraction buffer; entries are remote subblocks. */
class AttractionBuffer
{
  public:
    /**
     * @param entries      total entries (subblocks)
     * @param ways         associativity
     * @param num_clusters used to build the (block, home) key
     */
    AttractionBuffer(int entries, int ways, int num_clusters);

    /**
     * One walk of the subblock's set: on a hit, set @p hit and
     * LRU-touch it; on a miss, return the line fill() would claim.
     */
    int
    lookup(std::uint64_t block, int home_cluster, bool &hit)
    {
        return tags_.lookup(key(block, home_cluster), hit);
    }

    /** Install a subblock at @p line, which a missed lookup() of it
     *  returned with no install since. */
    void
    fill(int line, std::uint64_t block, int home_cluster)
    {
        installs_ += 1;
        if (tags_.lineValid(line))
            evictions_ += 1;
        tags_.fill(line, key(block, home_cluster));
    }

    /** Present, without updating LRU. */
    bool contains(std::uint64_t block, int home_cluster) const;

    /** Loop-boundary flush. */
    void flush();

    /** Back to the just-constructed state (contents + counters). */
    void reset();

    Counter installs() const { return installs_; }
    Counter evictions() const { return evictions_; }
    Counter flushes() const { return flushes_; }

  private:
    std::uint64_t
    key(std::uint64_t block, int home) const
    {
        return block * std::uint64_t(numClusters_) + std::uint64_t(home);
    }

    TagArray tags_;
    int numClusters_;
    Counter installs_ = 0;
    Counter evictions_ = 0;
    Counter flushes_ = 0;
};

} // namespace vliw

#endif // WIVLIW_MEM_ATTRACTION_BUFFER_HH
