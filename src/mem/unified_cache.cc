#include "unified_cache.hh"

#include "support/logging.hh"

namespace vliw {

UnifiedCache::UnifiedCache(const MachineConfig &cfg)
    : CacheModel(cfg),
      tags_(cfg.cacheSets(), cfg.cacheWays),
      ports_(cfg.unifiedPorts, 1)
{
    vliw_assert(cfg.cacheOrg == CacheOrg::Unified,
                "UnifiedCache built from a non-unified config");
}

MemAccessResult
UnifiedCache::access(const MemRequest &req)
{
    const Cycles t = req.issueCycle;
    const std::uint64_t block = blockOf(req.addr);

    const Cycles wait_port = ports_.acquire(t) - t;

    MemAccessResult res;
    // One tag walk: the hit line, or the line a miss fills.
    bool hit = false;
    const int line = tags_.lookup(block, hit);
    if (req.isStore && hit)
        tags_.markDirty(line);

    // In-flight fills come first: the line is allocated but the
    // data has not arrived yet.
    if (const Cycles *fill = pendingFills_.find(block, t)) {
        res.cls = AccessClass::Combined;
        res.readyCycle = *fill;
    } else if (hit) {
        res.cls = AccessClass::LocalHit;
        res.readyCycle = t + cfg_.latUnified + wait_port;
    } else {
        const Cycles wait_nl =
            nlAcquire(t + wait_port + cfg_.latUnified);
        res.cls = AccessClass::LocalMiss;
        res.readyCycle = t + cfg_.latUnified + cfg_.latNextLevel +
            wait_port + wait_nl;
        pendingFills_.set(block, res.readyCycle, t);
        tags_.fill(line, block);
        if (tags_.lastEvictionWasDirty())
            writebackVictim(res.readyCycle);
        if (req.isStore)
            tags_.markDirty(line);
    }

    stats_.record(res.cls, req.isStore);
    return res;
}

void
UnifiedCache::invalidateAll()
{
    tags_.clear();
    pendingFills_.clear();
}

void
UnifiedCache::resetModel()
{
    tags_.reset();
    ports_.reset();
}

} // namespace vliw
