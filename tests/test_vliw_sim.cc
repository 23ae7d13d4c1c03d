/**
 * @file
 * Tests for the lock-step VLIW core simulator: exact cycle counts,
 * stall-on-use semantics, copy timing, stall attribution, and the
 * invariants of the workspace kernel (only loads may stall, sized
 * instance rings, cursor-stepped addresses). A stub memory system
 * gives full control over access outcomes.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/toolchain.hh"
#include "mem/mem_system.hh"
#include "sim/sim_workspace.hh"
#include "sim/vliw_sim.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

/** Memory model with a fixed latency and classification. */
class StubMem : public MemSystem
{
  public:
    int latency = 1;
    AccessClass cls = AccessClass::LocalHit;

    MemAccessResult
    access(const MemRequest &req) override
    {
        MemAccessResult res;
        res.cls = cls;
        res.readyCycle = req.issueCycle + latency;
        stats_.record(cls, req.isStore);
        return res;
    }

    void invalidateAll() override {}
};

MemAccessInfo
loadInfo(std::int64_t stride = 4)
{
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = stride;
    return info;
}

/** ld -> add, both in cluster 0, ld at cycle 0, add at 0 + gap. */
struct TinyLoop
{
    Ddg ddg;
    Schedule sched;
    LatencyMap lat{};
    NodeId ld = kNoNode;
    NodeId add = kNoNode;

    TinyLoop(int ii, int gap, int assigned_lat)
    {
        ld = ddg.addMemNode(OpKind::Load, loadInfo(), "ld");
        add = ddg.addNode(OpKind::IntAlu, "add");
        ddg.addEdge(ld, add, DepKind::RegFlow, 0);

        sched.ii = ii;
        sched.ops.assign(2, PlacedOp{});
        sched.ops[std::size_t(ld)] = {0, 0};
        sched.ops[std::size_t(add)] = {gap, 0};
        sched.length = gap + 1;
        sched.stageCount = gap / ii + 1;

        lat = LatencyMap(ddg, assigned_lat);
    }

    LoopExecution
    exec(std::int64_t iters, const ProfileMap *prof = nullptr) const
    {
        LoopExecution e;
        e.ddg = &ddg;
        e.schedule = &sched;
        e.latencies = &lat;
        e.profile = prof;
        e.iterations = iters;
        e.addressOf = [](NodeId, std::int64_t iter) {
            return std::uint64_t(iter) * 4;
        };
        return e;
    }
};

TEST(VliwSim, ExactCyclesWithoutStall)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 1;

    TinyLoop loop(2, 1, 1);
    const auto result = simulateLoop(loop.exec(10), mem, cfg);
    // (iters - 1) * II + length = 9*2 + 2 = 20, no stall.
    EXPECT_EQ(result.stats.totalCycles, 20);
    EXPECT_EQ(result.stats.stallCycles, 0);
    EXPECT_EQ(result.stats.dynamicOps, 20u);
    EXPECT_EQ(result.stats.memAccesses, 10u);
    EXPECT_EQ(result.endCycle, 20);
}

TEST(VliwSim, StallOnUseWhenLoadIsLate)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 5;              // actual
    mem.cls = AccessClass::RemoteHit;

    TinyLoop loop(2, 1, 1);       // consumer expects latency 1
    const auto result = simulateLoop(loop.exec(10), mem, cfg);
    // Every iteration stalls 4 cycles at the consumer.
    EXPECT_EQ(result.stats.stallCycles, 40);
    EXPECT_EQ(result.stats.totalCycles, 20 + 40);
    EXPECT_EQ(result.stats.stallByClass[std::size_t(
                  AccessClass::RemoteHit)], 40);
}

TEST(VliwSim, NoStallWhenAssignedLatencyCovers)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 5;
    mem.cls = AccessClass::RemoteHit;

    TinyLoop loop(2, 5, 5);       // scheduled far enough
    const auto result = simulateLoop(loop.exec(10), mem, cfg);
    EXPECT_EQ(result.stats.stallCycles, 0);
}

TEST(VliwSim, StoreNeverStallsTheCore)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 50;             // glacial memory

    Ddg g;
    MemAccessInfo si = loadInfo();
    si.isStore = true;
    const NodeId st = g.addMemNode(OpKind::Store, si, "st");
    Schedule s;
    s.ii = 1;
    s.ops.assign(1, PlacedOp{});
    s.ops[std::size_t(st)] = {0, 0};
    s.length = 1;
    s.stageCount = 1;
    const LatencyMap lat(g, 1);

    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 16;
    e.addressOf = [](NodeId, std::int64_t i) {
        return std::uint64_t(i) * 4;
    };
    const auto result = simulateLoop(e, mem, cfg);
    EXPECT_EQ(result.stats.stallCycles, 0);
    EXPECT_EQ(result.stats.totalCycles, 16);
}

TEST(VliwSim, CrossIterationDependenceUsesOlderInstance)
{
    // ld feeds add at distance 1: iteration i's add needs iteration
    // i-1's load, which completed long ago -> no stall even with a
    // slow memory, as long as II covers the latency.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 5;

    Ddg g;
    const NodeId ld = g.addMemNode(OpKind::Load, loadInfo(), "ld");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    g.addEdge(ld, add, DepKind::RegFlow, 1);

    Schedule s;
    s.ii = 6;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(ld)] = {0, 0};
    s.ops[std::size_t(add)] = {0, 0};   // same cycle, previous iter
    s.length = 1;
    s.stageCount = 1;

    const LatencyMap lat(g, 5);
    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 8;
    e.addressOf = [](NodeId, std::int64_t i) {
        return std::uint64_t(i) * 4;
    };
    const auto result = simulateLoop(e, mem, cfg);
    EXPECT_EQ(result.stats.stallCycles, 0);
}

TEST(VliwSim, CopyCarriesValueAcrossClusters)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 1;

    // ld in cluster 0 at cycle 0 (assigned 1); copy at cycle 1;
    // consumer in cluster 1 at cycle 3 (= 1 + busLatency 2).
    Ddg g;
    const NodeId ld = g.addMemNode(OpKind::Load, loadInfo(), "ld");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    g.addEdge(ld, add, DepKind::RegFlow, 0);

    Schedule s;
    s.ii = 4;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(ld)] = {0, 0};
    s.ops[std::size_t(add)] = {3, 1};
    s.copies.push_back({ld, 0, 1, 1, 3});
    s.length = 4;
    s.stageCount = 1;

    const LatencyMap lat(g, 1);
    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 5;
    e.addressOf = [](NodeId, std::int64_t i) {
        return std::uint64_t(i) * 4;
    };
    const auto result = simulateLoop(e, mem, cfg);
    EXPECT_EQ(result.stats.stallCycles, 0);
    EXPECT_EQ(result.stats.dynamicCopies, 5u);
}

TEST(VliwSim, LateLoadStallsTheCopy)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 5;              // load is 4 cycles late
    mem.cls = AccessClass::RemoteHit;

    Ddg g;
    const NodeId ld = g.addMemNode(OpKind::Load, loadInfo(), "ld");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    g.addEdge(ld, add, DepKind::RegFlow, 0);

    Schedule s;
    s.ii = 8;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(ld)] = {0, 0};
    s.ops[std::size_t(add)] = {3, 1};
    s.copies.push_back({ld, 0, 1, 1, 3});
    s.length = 4;
    s.stageCount = 1;

    const LatencyMap lat(g, 1);
    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 4;
    e.addressOf = [](NodeId, std::int64_t i) {
        return std::uint64_t(i) * 4;
    };
    const auto result = simulateLoop(e, mem, cfg);
    // The copy issues at 1 but the value arrives at 5: 4 cycles of
    // stall per iteration, charged to the remote hit.
    EXPECT_EQ(result.stats.stallCycles, 16);
    EXPECT_EQ(result.stats.stallByClass[std::size_t(
                  AccessClass::RemoteHit)], 16);
}

TEST(VliwSim, StallFactorsAttributed)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 5;
    mem.cls = AccessClass::RemoteHit;

    TinyLoop loop(2, 1, 1);
    // Mark the op as unclear-preferred and not-in-preferred.
    ProfileMap prof(loop.ddg.numNodes());
    prof.at(loop.ld).distribution = 0.5;
    prof.at(loop.ld).preferredCluster = 3;   // scheduled in 0

    const auto result =
        simulateLoop(loop.exec(6, &prof), mem, cfg);
    EXPECT_GT(result.stats.remoteHitFactors.unclearPreferred, 0u);
    EXPECT_GT(result.stats.remoteHitFactors.notInPreferred, 0u);
    EXPECT_EQ(result.stats.remoteHitFactors.granularity, 0u);
}

TEST(VliwSim, WideGranularityFactor)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 5;
    mem.cls = AccessClass::RemoteHit;

    Ddg g;
    MemAccessInfo info = loadInfo(8);
    info.granularity = 8;
    const NodeId ld = g.addMemNode(OpKind::Load, info, "ld");
    const NodeId add = g.addNode(OpKind::FpAlu, "add");
    g.addEdge(ld, add, DepKind::RegFlow, 0);

    Schedule s;
    s.ii = 2;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(ld)] = {0, 0};
    s.ops[std::size_t(add)] = {1, 0};
    s.length = 2;
    s.stageCount = 1;

    const LatencyMap lat(g, 1);
    ProfileMap prof(g.numNodes());
    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.profile = &prof;
    e.iterations = 4;
    e.addressOf = [](NodeId, std::int64_t i) {
        return std::uint64_t(i) * 8;
    };
    const auto result = simulateLoop(e, mem, cfg);
    EXPECT_GT(result.stats.remoteHitFactors.granularity, 0u);
}

TEST(VliwSim, StartCycleOffsetsEverything)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    TinyLoop loop(2, 1, 1);
    auto e = loop.exec(10);
    e.startCycle = 1000;
    const auto result = simulateLoop(e, mem, cfg);
    EXPECT_EQ(result.endCycle, 1000 + 20);
    EXPECT_EQ(result.stats.totalCycles, 20);
}

TEST(VliwSim, ZeroIterationsIsEmpty)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    TinyLoop loop(2, 1, 1);
    const auto result = simulateLoop(loop.exec(0), mem, cfg);
    EXPECT_EQ(result.stats.totalCycles, 0);
    EXPECT_EQ(result.endCycle, 0);
}

TEST(VliwSim, ComputeConsumerTooCloseStillPanics)
{
    // A hand-built schedule that places a consumer one cycle after a
    // 3-cycle compute producer cannot be proved stall-free, so the
    // operand stays in the walk and the only-loads-stall check fires.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;

    Ddg g;
    const NodeId mul = g.addNode(OpKind::IntAlu, "mul");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    g.addEdge(mul, add, DepKind::RegFlow, 0);

    Schedule s;
    s.ii = 4;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(mul)] = {0, 0};
    s.ops[std::size_t(add)] = {1, 0};
    s.length = 2;
    s.stageCount = 1;

    LatencyMap lat(g, 1);
    lat.set(mul, 3);
    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 4;
    e.addressOf = [](NodeId, std::int64_t) { return 0; };
    try {
        simulateLoop(e, mem, cfg);
        FAIL() << "a stall on a compute value went unnoticed";
    } catch (const std::logic_error &err) {
        EXPECT_NE(std::string(err.what())
                      .find("stall blocked by a non-load value"),
                  std::string::npos)
            << err.what();
    }
}

TEST(VliwSim, LongRecurrenceWrapsTheRingExactly)
{
    // ld feeds add at distance 40, II 1, memory latency 45: add(i)
    // waits for ld(i - 40), issued 40 waves earlier, i.e. 5 cycles
    // late unless the offset has grown since. ld and add share a
    // cycle and ld issues first, so a stall at wave s reaches every
    // load from s + 1 on, and the next stall is add(s + 41), the
    // first consumer of such a load. Stalls of 5 thus land at waves
    // 40 + 41k: 24 of them in 1000 iterations. The ring holds 64
    // iterations, so it wraps 15 times; a ring too shallow for the
    // distance would lose the stamps and report no stall at all.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    StubMem mem;
    mem.latency = 45;

    Ddg g;
    const NodeId ld = g.addMemNode(OpKind::Load, loadInfo(), "ld");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    g.addEdge(ld, add, DepKind::RegFlow, 40);

    Schedule s;
    s.ii = 1;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(ld)] = {0, 0};
    s.ops[std::size_t(add)] = {0, 0};
    s.length = 1;
    s.stageCount = 1;

    const LatencyMap lat(g, 1);
    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 1000;
    e.addressOf = [](NodeId, std::int64_t i) {
        return std::uint64_t(i) * 4;
    };
    const auto result = simulateLoop(e, mem, cfg);
    EXPECT_EQ(result.stats.stallCycles, 24 * 5);
    EXPECT_EQ(result.stats.stallByClass[std::size_t(
                  AccessClass::LocalHit)], 24 * 5);
    EXPECT_EQ(result.stats.totalCycles, 999 * 1 + 1 + 24 * 5);
    EXPECT_EQ(result.stats.dynamicOps, 2000u);
    EXPECT_EQ(result.stats.memAccesses, 1000u);
}

void
expectSameStats(const SimStats &a, const SimStats &b,
                const std::string &where)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << where;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << where;
    EXPECT_EQ(a.accessesByClass, b.accessesByClass) << where;
    EXPECT_EQ(a.stallByClass, b.stallByClass) << where;
    EXPECT_EQ(a.remoteHitFactors.multiCluster,
              b.remoteHitFactors.multiCluster) << where;
    EXPECT_EQ(a.remoteHitFactors.unclearPreferred,
              b.remoteHitFactors.unclearPreferred) << where;
    EXPECT_EQ(a.remoteHitFactors.notInPreferred,
              b.remoteHitFactors.notInPreferred) << where;
    EXPECT_EQ(a.remoteHitFactors.granularity,
              b.remoteHitFactors.granularity) << where;
    EXPECT_EQ(a.dynamicOps, b.dynamicOps) << where;
    EXPECT_EQ(a.dynamicCopies, b.dynamicCopies) << where;
    EXPECT_EQ(a.memAccesses, b.memAccesses) << where;
    EXPECT_EQ(a.abHits, b.abHits) << where;
}

TEST(VliwSim, CallbackAndResolverStreamsAgree)
{
    // The same compiled loops and addresses, once through an
    // arbitrary AddressFn (simulateLoop, one call per access) and
    // once through the resolver's cursor-stepped streams: every
    // statistic must match, across invocations (base drift) and on
    // real cache models.
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    const Toolchain chain(cfg, ToolchainOptions{});
    for (const char *name :
         {"epicenc", "gsmdec", "jpegdec", "pgpdec"}) {
        const BenchmarkSpec bench = makeBenchmark(name);
        const CompiledBenchmark compiled =
            chain.compileBenchmark(bench);
        const DataSet ds = makeDataSet(bench, cfg, 77, true);
        auto streamed_mem = makeMemSystem(cfg);
        auto called_mem = makeMemSystem(cfg);
        SimWorkspace ws;
        for (std::size_t li = 0; li < compiled.loops.size(); ++li) {
            const CompiledLoop &loop = compiled.loops[li].primary;
            AddressResolver addr(loop.ddg, bench, ds);
            const int kernel =
                ws.prepare(loop.ddg, loop.sched.schedule,
                           loop.latency.latencies, cfg.regBusLatency);
            Cycles clock = 0;
            for (int inv = 0; inv < loop.invocations; ++inv) {
                addr.setInvocation(inv);
                SimRunParams params;
                params.profile = &loop.profile;
                params.iterations = loop.kernelIterations;
                params.startCycle = clock;
                const SimRunResult streamed =
                    ws.run(kernel, params, AddressSource::of(addr),
                           *streamed_mem, cfg);

                LoopExecution e;
                e.ddg = &loop.ddg;
                e.schedule = &loop.sched.schedule;
                e.latencies = &loop.latency.latencies;
                e.profile = &loop.profile;
                e.iterations = loop.kernelIterations;
                e.startCycle = clock;
                e.addressOf = [&](NodeId v, std::int64_t i) {
                    return addr.addressOf(v, i);
                };
                const LoopSimResult called =
                    simulateLoop(e, *called_mem, cfg);

                const std::string where = std::string(name) +
                    " loop " + std::to_string(li) + " inv " +
                    std::to_string(inv);
                expectSameStats(streamed.stats, called.stats, where);
                EXPECT_EQ(streamed.endCycle, called.endCycle)
                    << where;
                clock = streamed.endCycle;
                streamed_mem->loopBoundary();
                called_mem->loopBoundary();
            }
        }
    }
}

} // namespace
} // namespace vliw
