/**
 * @file
 * multiVLIW memory system (Sánchez & González, MICRO-33): one private
 * cache per cluster kept coherent with a snoopy write-invalidate MSI
 * protocol over the memory buses. Data may be replicated, which
 * trades effective capacity for locality.
 *
 * Every module has the same geometry, so a block maps to the same
 * set index in each of them. The model therefore keeps one flat
 * snoop directory: per set, every module's ways side by side as
 * {key, lastUse, MSI state}, with state != Invalid as the valid bit.
 * The own-module walk, the snoop for a holder and the invalidation
 * of the other copies are each one contiguous scan of that set. A
 * single LRU clock serves all modules; it preserves each module's
 * relative order, so the LRU victims are those of per-module clocks.
 *
 * Class mapping for the shared statistics: LocalHit = hit in the own
 * module, RemoteHit = cache-to-cache transfer, LocalMiss = next-level
 * fill, Combined = merged with an in-flight fill.
 */

#ifndef WIVLIW_MEM_COHERENT_CACHE_HH
#define WIVLIW_MEM_COHERENT_CACHE_HH

#include <vector>

#include "mem/cache_model.hh"
#include "mem/tag_array.hh"

namespace vliw {

/** Snoopy-MSI multiVLIW cache model. */
class CoherentCache : public CacheModel
{
  public:
    explicit CoherentCache(const MachineConfig &cfg);

    MemAccessResult access(const MemRequest &req) override;
    void invalidateAll() override;

    /** MSI line states. */
    enum class Msi : std::uint8_t { Invalid, Shared, Modified };

    /** State of @p block in @p cluster's module (for tests). */
    Msi stateOf(int cluster, std::uint64_t block) const;

    /** Protocol invariant: at most one Modified copy per block. */
    bool coherenceInvariantHolds() const;

  protected:
    void resetModel() override;

  private:
    /** One way of one module. */
    struct Way
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        Msi state = Msi::Invalid;

        bool holds(std::uint64_t block) const
        {
            return state != Msi::Invalid && key == block;
        }
    };

    /** Directory index of @p cluster's first way in @p block's set. */
    std::size_t
    moduleFirst(std::uint64_t block, int cluster) const
    {
        return (std::size_t(setOf_(block)) * std::size_t(numClusters_) +
                std::size_t(cluster)) * std::size_t(ways_);
    }

    /**
     * One walk of the module whose first way is @p first. On a hit,
     * sets @p hit and LRU-touches the way holding @p block; on a
     * miss, returns the way an install claims (the first invalid
     * one, else the least recently used).
     */
    std::size_t walkModule(std::size_t first, std::uint64_t block,
                           bool &hit);

    /** Install @p block into way @p way of @p cluster's module with
     *  @p st (a Modified victim is written back around cycle @p t). */
    void install(std::size_t way, int cluster, std::uint64_t block,
                 Msi st, Cycles t);

    /** First way outside @p cluster's module holding @p block, in
     *  cluster order, or nullptr. */
    Way *snoop(int cluster, std::uint64_t block);

    /** Invalidate every copy outside @p cluster; true when there
     *  was one. */
    bool invalidateOthers(int cluster, std::uint64_t block);

    int numClusters_;
    int ways_;
    SetIndex setOf_;
    /** sets x clusters x ways, module-major within a set. */
    std::vector<Way> dir_;
    std::uint64_t useCounter_ = 0;
    ResourceSet memBuses_;
};

} // namespace vliw

#endif // WIVLIW_MEM_COHERENT_CACHE_HH
