#include "profiler.hh"

#include <algorithm>

#include "mem/tag_array.hh"
#include "support/logging.hh"

namespace vliw {

ProfileMap
profileLoop(const Ddg &ddg, AddressResolver &resolver,
            std::int64_t iterations, int invocations,
            const MachineConfig &cfg, const ProfileOptions &opts)
{
    ProfileMap map(ddg.numNodes());
    const std::vector<NodeId> mem_nodes = ddg.memNodes();
    if (mem_nodes.empty())
        return map;

    // Functional hit/miss model with the target geometry. Tags are
    // replicated across modules, so one logical array suffices.
    TagArray tags(cfg.cacheSets(), cfg.cacheWays);
    std::vector<std::uint64_t> hits(std::size_t(ddg.numNodes()), 0);

    for (NodeId v : mem_nodes) {
        map.at(v).clusterCounts.assign(
            std::size_t(cfg.numClusters), 0);
    }

    const std::int64_t per_invocation = opts.maxIterations > 0
        ? std::min(iterations, opts.maxIterations) : iterations;

    std::vector<AddressCursor> cursors(mem_nodes.size());
    for (int inv = 0; inv < invocations; ++inv) {
        resolver.setInvocation(inv);
        for (std::size_t m = 0; m < mem_nodes.size(); ++m)
            cursors[m] = AddressCursor(resolver.stream(mem_nodes[m]));
        for (std::int64_t i = 0; i < per_invocation; ++i) {
            for (std::size_t m = 0; m < mem_nodes.size(); ++m) {
                const NodeId v = mem_nodes[m];
                const std::uint64_t addr = cursors[m].next(i);
                const std::uint64_t block =
                    addr / std::uint64_t(cfg.blockBytes);

                MemProfile &prof = map.at(v);
                prof.executions += 1;
                prof.clusterCounts[std::size_t(
                    cfg.homeCluster(addr))] += 1;

                if (tags.touch(block) != TagArray::kNoLine) {
                    hits[std::size_t(v)] += 1;
                } else {
                    tags.insert(block);
                }
            }
        }
    }

    for (NodeId v : mem_nodes) {
        MemProfile &prof = map.at(v);
        if (prof.executions == 0) {
            prof.hitRate = 0.0;
            continue;
        }
        prof.hitRate =
            double(hits[std::size_t(v)]) / double(prof.executions);

        std::uint64_t best = 0;
        std::uint64_t best_count = 0;
        for (std::size_t c = 0; c < prof.clusterCounts.size(); ++c) {
            if (prof.clusterCounts[c] > best_count) {
                best_count = prof.clusterCounts[c];
                best = c;
            }
        }
        prof.preferredCluster = int(best);
        prof.distribution =
            double(best_count) / double(prof.executions);

        // Local ratio: probability an access is fully local when the
        // op sits in its preferred cluster. Elements wider than the
        // interleaving factor are never fully local.
        const MemAccessInfo &info = ddg.memInfo(v);
        prof.localRatio = info.granularity > cfg.interleaveBytes
            ? 0.0 : prof.distribution;
    }
    return map;
}

} // namespace vliw
