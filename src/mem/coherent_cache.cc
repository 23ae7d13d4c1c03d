#include "coherent_cache.hh"

#include "support/logging.hh"

namespace vliw {

CoherentCache::CoherentCache(const MachineConfig &cfg)
    : CacheModel(cfg),
      numClusters_(cfg.numClusters),
      ways_(cfg.cacheWays),
      setOf_(cfg.coherentModuleSets()),
      memBuses_(cfg.memBuses, cfg.memBusOccupancy)
{
    vliw_assert(cfg.cacheOrg == CacheOrg::MultiVliw,
                "CoherentCache built from a non-multiVLIW config");
    vliw_assert(setOf_.sets() > 0, "multiVLIW module without sets");
    dir_.resize(std::size_t(setOf_.sets()) * std::size_t(numClusters_) *
                std::size_t(ways_));
}

CoherentCache::Msi
CoherentCache::stateOf(int cluster, std::uint64_t block) const
{
    const std::size_t first = moduleFirst(block, cluster);
    for (std::size_t w = first; w < first + std::size_t(ways_); ++w) {
        if (dir_[w].holds(block))
            return dir_[w].state;
    }
    return Msi::Invalid;
}

bool
CoherentCache::coherenceInvariantHolds() const
{
    // A block lives in the same set of every module, so the
    // M-exclusion check is local to one set's run of the directory.
    const std::size_t per_module = std::size_t(ways_);
    const std::size_t per_set = per_module * std::size_t(numClusters_);
    for (std::size_t set = 0; set < dir_.size(); set += per_set) {
        for (std::size_t i = set; i < set + per_set; ++i) {
            if (dir_[i].state != Msi::Modified)
                continue;
            const std::size_t module = (i - set) / per_module;
            for (std::size_t j = set; j < set + per_set; ++j) {
                if ((j - set) / per_module != module &&
                    dir_[j].holds(dir_[i].key))
                    return false;
            }
        }
    }
    return true;
}

std::size_t
CoherentCache::walkModule(std::size_t first, std::uint64_t block,
                          bool &hit)
{
    const std::size_t end = first + std::size_t(ways_);
    std::size_t invalid = end;
    std::size_t victim = first;
    for (std::size_t w = first; w < end; ++w) {
        Way &way = dir_[w];
        if (way.state == Msi::Invalid) {
            if (invalid == end)
                invalid = w;
        } else if (way.key == block) {
            hit = true;
            way.lastUse = ++useCounter_;
            return w;
        } else if (way.lastUse < dir_[victim].lastUse) {
            victim = w;
        }
    }
    hit = false;
    return invalid != end ? invalid : victim;
}

void
CoherentCache::install(std::size_t way, int cluster,
                       std::uint64_t block, Msi st, Cycles t)
{
    const std::size_t first = moduleFirst(block, cluster);
    vliw_assert(way >= first && way < first + std::size_t(ways_),
                "install outside the module's set");
    vliw_assert(st != Msi::Invalid, "install in the Invalid state");
    Way &w = dir_[way];
    // A Modified victim is written back through the buffer: off the
    // critical path but it does occupy a next-level port.
    if (w.state == Msi::Modified)
        writebackVictim(t);
    w.key = block;
    w.lastUse = ++useCounter_;
    w.state = st;
}

CoherentCache::Way *
CoherentCache::snoop(int cluster, std::uint64_t block)
{
    const std::size_t set = moduleFirst(block, 0);
    const std::size_t own = set + std::size_t(cluster * ways_);
    const std::size_t end = set + std::size_t(numClusters_ * ways_);
    for (std::size_t w = set; w < end; ++w) {
        if (w - own < std::size_t(ways_))   // the own module
            continue;
        if (dir_[w].holds(block))
            return &dir_[w];
    }
    return nullptr;
}

bool
CoherentCache::invalidateOthers(int cluster, std::uint64_t block)
{
    const std::size_t set = moduleFirst(block, 0);
    const std::size_t own = set + std::size_t(cluster * ways_);
    const std::size_t end = set + std::size_t(numClusters_ * ways_);
    bool held = false;
    for (std::size_t w = set; w < end; ++w) {
        if (w - own < std::size_t(ways_))   // the own module
            continue;
        if (dir_[w].holds(block)) {
            dir_[w].state = Msi::Invalid;
            held = true;
        }
    }
    return held;
}

MemAccessResult
CoherentCache::access(const MemRequest &req)
{
    const Cycles t = req.issueCycle;
    const std::uint64_t block = blockOf(req.addr);
    /** Combining key: block * numClusters + cluster. */
    const std::uint64_t fill_key =
        block * std::uint64_t(numClusters_) + std::uint64_t(req.cluster);

    MemAccessResult res;

    // One walk of the own module: the hit way, or the install victim.
    bool hit = false;
    const std::size_t way =
        walkModule(moduleFirst(block, req.cluster), block, hit);
    const Msi st = hit ? dir_[way].state : Msi::Invalid;

    if (!req.isStore) {
        if (const Cycles *fill = pendingFills_.find(fill_key, t)) {
            // Line allocated but the fill is still in flight.
            res.cls = AccessClass::Combined;
            res.readyCycle = *fill;
            stats_.record(res.cls, false);
            return res;
        }
        if (st != Msi::Invalid) {
            res.cls = AccessClass::LocalHit;
            res.readyCycle = t + cfg_.latCoherentHit;
            stats_.record(res.cls, false);
            return res;
        }

        // Broadcast the read miss on the bus.
        const Cycles wait_bus = busAcquire(memBuses_, t);
        res.referencedRemote = true;

        if (Way *sup = snoop(req.cluster, block)) {
            // Cache-to-cache transfer; a Modified supplier writes
            // the line back while downgrading to Shared.
            if (sup->state == Msi::Modified)
                writebackVictim(t);
            sup->state = Msi::Shared;
            res.cls = AccessClass::RemoteHit;
            res.readyCycle = t + cfg_.latCacheToCache + wait_bus;
        } else {
            const Cycles wait_nl =
                nlAcquire(t + wait_bus + cfg_.memBusOccupancy);
            res.cls = AccessClass::LocalMiss;
            res.readyCycle = t + cfg_.latCoherentHit +
                cfg_.latNextLevel + wait_bus + wait_nl;
        }
        pendingFills_.set(fill_key, res.readyCycle, t);
        install(way, req.cluster, block, Msi::Shared, t);
        stats_.record(res.cls, false);
        return res;
    }

    // Store path: needs the Modified state.
    if (const Cycles *fill = pendingFills_.find(fill_key, t)) {
        res.cls = AccessClass::Combined;
        res.readyCycle = *fill;
        stats_.record(res.cls, true);
        return res;
    }
    if (st == Msi::Modified) {
        res.cls = AccessClass::LocalHit;
        res.readyCycle = t + cfg_.latCoherentHit;
        stats_.record(res.cls, true);
        return res;
    }

    if (st == Msi::Shared) {
        // Upgrade: invalidate the other copies over the bus; the
        // store itself completes locally.
        busAcquire(memBuses_, t);
        invalidateOthers(req.cluster, block);
        dir_[way].state = Msi::Modified;
        res.cls = AccessClass::LocalHit;
        res.readyCycle = t + cfg_.latCoherentHit;
        stats_.record(res.cls, true);
        return res;
    }

    // Write miss: any other copy supplies the line and is invalidated.
    const Cycles wait_bus = busAcquire(memBuses_, t);
    res.referencedRemote = true;

    if (invalidateOthers(req.cluster, block)) {
        res.cls = AccessClass::RemoteHit;
        res.readyCycle = t + cfg_.latCacheToCache + wait_bus;
    } else {
        const Cycles wait_nl =
            nlAcquire(t + wait_bus + cfg_.memBusOccupancy);
        res.cls = AccessClass::LocalMiss;
        res.readyCycle = t + cfg_.latCoherentHit +
            cfg_.latNextLevel + wait_bus + wait_nl;
    }
    pendingFills_.set(fill_key, res.readyCycle, t);
    install(way, req.cluster, block, Msi::Modified, t);
    stats_.record(res.cls, true);
    return res;
}

void
CoherentCache::invalidateAll()
{
    for (Way &w : dir_)
        w.state = Msi::Invalid;
    pendingFills_.clear();
}

void
CoherentCache::resetModel()
{
    for (Way &w : dir_)
        w = Way{};
    useCounter_ = 0;
    memBuses_.reset();
}

} // namespace vliw
