/**
 * @file
 * Tests for Section 5.4 loop versioning: the range-disjointness
 * check code, version selection per invocation, and the safety
 * property that truly aliasing loops keep their chains.
 */

#include <gtest/gtest.h>

#include "core/toolchain.hh"
#include "core/versioning.hh"
#include "workloads/dataset.hh"
#include "workloads/kernels.hh"

namespace vliw {
namespace {

BenchmarkSpec
twoRegionBench(std::int64_t store_offset)
{
    // ld buf[i], st buf[i + store_offset], conservatively chained.
    BenchmarkSpec b;
    b.name = "regions";
    b.addSymbol("buf", 8 * 1024, SymbolSpec::Storage::Heap);
    KernelBuilder kb("merge");
    const NodeId ld = kb.load(0, 4, 4, {}, "ld");
    const NodeId v = kb.compute(OpKind::IntAlu, {ld});
    const NodeId st = kb.store(0, 4, 4, v, {.offset = store_offset},
                               "st");
    kb.chain({ld, st});
    b.loops.push_back(kb.take(256, 2));
    return b;
}

/** Compile @p bench under (@p cfg, @p opts) and simulate it. */
BenchmarkRun
compileAndSimulate(const MachineConfig &cfg, const ToolchainOptions &opts,
                   const BenchmarkSpec &bench)
{
    const Toolchain chain(cfg, opts);
    return chain.simulateBenchmark(bench, chain.compileBenchmark(bench));
}

TEST(Versioning, AccessRangeCoversTheWalk)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec b = twoRegionBench(4 * 1024);
    const DataSet ds = makeDataSet(b, cfg, 3, true);
    const Ddg &ddg = b.loops.front().body;
    AddressResolver addr(ddg, b, ds);

    const NodeId ld = ddg.memNodes().front();
    const AccessRange r = accessRange(ddg, addr, ld, 256);
    EXPECT_EQ(r.lo, ds.symbolBase[0]);
    EXPECT_EQ(r.hi, ds.symbolBase[0] + 255 * 4 + 3);
}

TEST(Versioning, DisjointRegionsPassTheCheck)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec b = twoRegionBench(4 * 1024);
    const DataSet ds = makeDataSet(b, cfg, 3, true);
    const Ddg &ddg = b.loops.front().body;
    AddressResolver addr(ddg, b, ds);
    MemChains chains(ddg);
    EXPECT_TRUE(chainsDynamicallyDisjoint(ddg, chains, addr, 256));
}

TEST(Versioning, OverlappingRegionsFailTheCheck)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec b = twoRegionBench(16);   // overlaps the walk
    const DataSet ds = makeDataSet(b, cfg, 3, true);
    const Ddg &ddg = b.loops.front().body;
    AddressResolver addr(ddg, b, ds);
    MemChains chains(ddg);
    EXPECT_FALSE(chainsDynamicallyDisjoint(ddg, chains, addr, 256));
}

TEST(Versioning, LoadOnlyChainsNeedNoStoreCheck)
{
    // Two loads in one chain never conflict (no store involved).
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b;
    b.name = "loads";
    b.addSymbol("buf", 1024, SymbolSpec::Storage::Heap);
    KernelBuilder kb("loads");
    const NodeId a = kb.load(0, 4, 4, {}, "a");
    const NodeId c = kb.load(0, 4, 4, {.offset = 8}, "c");
    kb.chain({a, c});
    b.loops.push_back(kb.take(64, 1));

    const DataSet ds = makeDataSet(b, cfg, 3, true);
    AddressResolver addr(b.loops.front().body, b, ds);
    MemChains chains(b.loops.front().body);
    EXPECT_TRUE(chainsDynamicallyDisjoint(
        b.loops.front().body, chains, addr, 64));
}

TEST(Versioning, ToolchainPicksUnchainedVersionWhenSafe)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    opts.loopVersioning = true;

    const BenchmarkSpec disjoint = twoRegionBench(4 * 1024);
    const BenchmarkRun run = compileAndSimulate(cfg, opts, disjoint);
    ASSERT_EQ(run.loops.size(), 1u);
    EXPECT_EQ(run.loops.front().unchainedInvocations, 2);
}

TEST(Versioning, ToolchainKeepsChainsWhenAliased)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    opts.loopVersioning = true;

    const BenchmarkSpec aliased = twoRegionBench(16);
    const BenchmarkRun run = compileAndSimulate(cfg, opts, aliased);
    ASSERT_EQ(run.loops.size(), 1u);
    EXPECT_EQ(run.loops.front().unchainedInvocations, 0);
}

TEST(Versioning, NeverSlowerOnTheSuite)
{
    // Versioning may only change invocations that pass the safety
    // check, so it should not lose cycles overall.
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions plain;
    plain.heuristic = Heuristic::Ipbc;
    ToolchainOptions versioned = plain;
    versioned.loopVersioning = true;

    const BenchmarkSpec epic = makeBenchmark("epicdec");
    const BenchmarkRun a = compileAndSimulate(cfg, plain, epic);
    const BenchmarkRun b = compileAndSimulate(cfg, versioned, epic);
    EXPECT_LE(b.total.totalCycles,
              a.total.totalCycles + a.total.totalCycles / 20);
    // The false-alias band_merge loop must have been unchained.
    bool unchained = false;
    for (const LoopRun &lr : b.loops) {
        if (lr.name == "band_merge")
            unchained = lr.unchainedInvocations > 0;
    }
    EXPECT_TRUE(unchained);
}

TEST(Versioning, OffByDefault)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    const BenchmarkRun run =
        compileAndSimulate(cfg, opts, twoRegionBench(4 * 1024));
    EXPECT_EQ(run.loops.front().unchainedInvocations, 0);
}

} // namespace
} // namespace vliw
