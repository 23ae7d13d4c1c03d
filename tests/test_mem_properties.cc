/**
 * @file
 * Property tests over all three memory-system models under
 * randomized traffic: completion times never precede issue, are
 * bounded below by the class's uncontended latency, classification
 * counters account for every access, and Attraction Buffers never
 * make an access slower than the plain interleaved cache would.
 */

#include <gtest/gtest.h>

#include "mem/interleaved_cache.hh"
#include "mem/mem_system.hh"
#include "support/random.hh"
#include "util_mem_traffic.hh"

namespace vliw {
namespace {

struct TrafficParam
{
    CacheOrg org;
    int seed;
};

using testutil::randomRequest;

MachineConfig
configFor(CacheOrg org)
{
    switch (org) {
      case CacheOrg::Interleaved:
        return MachineConfig::paperInterleavedAb();
      case CacheOrg::Unified:
        return MachineConfig::paperUnified(5);
      case CacheOrg::MultiVliw:
        return MachineConfig::paperMultiVliw();
    }
    return MachineConfig::paperInterleaved();
}

class MemTrafficProperty
    : public ::testing::TestWithParam<TrafficParam>
{};

TEST_P(MemTrafficProperty, TimingAndAccountingInvariants)
{
    const TrafficParam param = GetParam();
    const MachineConfig cfg = configFor(param.org);
    auto mem = makeMemSystem(cfg);

    Rng rng{std::uint64_t(param.seed) * 977 + 13};
    Cycles t = 0;
    Counter issued = 0;
    Cycles drain_edge = 0;   // latest completion booked so far

    for (int i = 0; i < 1500; ++i) {
        t += Cycles(rng.nextBelow(3));
        const MemRequest req = randomRequest(rng, t);
        const MemAccessResult res = mem->access(req);
        ++issued;

        // Completion never precedes issue. Under oversubscription
        // the queue backlog grows without bound, but each access
        // still completes within one service time of either its
        // issue or the previous drain edge: a finite-server queue
        // cannot reorder a new arrival past the booked work.
        EXPECT_GE(res.readyCycle, req.issueCycle);
        const Cycles basis = std::max(drain_edge, t);
        EXPECT_LE(res.readyCycle, basis + 64)
            << "completion beyond the drain edge at access " << i;
        drain_edge = std::max(drain_edge, res.readyCycle);

        if (res.cls == AccessClass::LocalHit && !res.abHit &&
            param.org == CacheOrg::Interleaved) {
            EXPECT_EQ(res.readyCycle,
                      req.issueCycle + cfg.latLocalHit);
        }
        if (rng.chance(0.01))
            mem->loopBoundary();
    }

    const MemStats &stats = mem->stats();
    EXPECT_EQ(stats.totalAccesses(), issued);
    EXPECT_EQ(stats.loads + stats.stores, issued);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, MemTrafficProperty,
    ::testing::Values(
        TrafficParam{CacheOrg::Interleaved, 1},
        TrafficParam{CacheOrg::Interleaved, 2},
        TrafficParam{CacheOrg::Interleaved, 3},
        TrafficParam{CacheOrg::Unified, 1},
        TrafficParam{CacheOrg::Unified, 2},
        TrafficParam{CacheOrg::MultiVliw, 1},
        TrafficParam{CacheOrg::MultiVliw, 2},
        TrafficParam{CacheOrg::MultiVliw, 3}),
    [](const ::testing::TestParamInfo<TrafficParam> &info) {
        return std::string(cacheOrgName(info.param.org)) + "_seed" +
            std::to_string(info.param.seed);
    });

class AbNeverSlower : public ::testing::TestWithParam<int>
{};

TEST_P(AbNeverSlower, AggregateLatencyDominance)
{
    // The same request stream through the interleaved cache with
    // and without Attraction Buffers. Individual accesses can be
    // slower with ABs (the two caches' queueing states diverge as
    // soon as one hit is absorbed), but in aggregate the buffers
    // must pay for themselves: lower total latency and less bus
    // traffic.
    MachineConfig plain_cfg = MachineConfig::paperInterleaved();
    MachineConfig ab_cfg = MachineConfig::paperInterleavedAb();
    InterleavedCache plain(plain_cfg);
    InterleavedCache with_ab(ab_cfg);

    Rng rng{std::uint64_t(GetParam()) * 31 + 7};
    Cycles t = 0;
    std::int64_t total_plain = 0;
    std::int64_t total_ab = 0;
    for (int i = 0; i < 800; ++i) {
        t += Cycles(rng.nextBelow(2));
        const MemRequest req = randomRequest(rng, t);
        total_plain += plain.access(req).readyCycle - t;
        total_ab += with_ab.access(req).readyCycle - t;
    }
    EXPECT_LE(total_ab, total_plain);
    EXPECT_GE(with_ab.stats().abHits, 1u);
    // AB stores through a replica still forward one bus leg where
    // the plain cache may have combined the access, so allow a
    // whisker of extra transfers; anything systematic is a bug.
    EXPECT_LE(with_ab.stats().busTransfers,
              plain.stats().busTransfers +
                  plain.stats().busTransfers / 50 + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbNeverSlower,
                         ::testing::Range(0, 6));

} // namespace
} // namespace vliw
