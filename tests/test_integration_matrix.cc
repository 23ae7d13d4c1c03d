/**
 * @file
 * The full cross-product integration matrix: every suite benchmark,
 * compiled and simulated under every heuristic and architecture the
 * paper evaluates. Each cell checks schedule validity (dependences,
 * FU and bus capacity, chain co-location), register pressure, and
 * simulation sanity (stall < total, accesses accounted).
 */

#include <gtest/gtest.h>

#include "core/toolchain.hh"
#include "sched/reg_pressure.hh"
#include "sched/schedule.hh"

namespace vliw {
namespace {

struct MatrixParam
{
    std::string bench;
    Heuristic heuristic;
    CacheOrg arch;

    std::string
    label() const
    {
        std::string s = bench;
        s += "_";
        s += heuristicName(heuristic);
        s += "_";
        s += cacheOrgName(arch);
        for (char &c : s) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return s;
    }
};

MachineConfig
configFor(CacheOrg arch)
{
    switch (arch) {
      case CacheOrg::Interleaved:
        return MachineConfig::paperInterleavedAb();
      case CacheOrg::Unified:
        return MachineConfig::paperUnified(5);
      case CacheOrg::MultiVliw:
        return MachineConfig::paperMultiVliw();
    }
    return MachineConfig::paperInterleaved();
}

class IntegrationMatrix
    : public ::testing::TestWithParam<MatrixParam>
{};

TEST_P(IntegrationMatrix, CompilesAndSimulates)
{
    const MatrixParam &param = GetParam();
    const MachineConfig cfg = configFor(param.arch);

    ToolchainOptions opts;
    opts.heuristic = param.heuristic;
    opts.unroll = UnrollPolicy::Selective;
    const Toolchain chain(cfg, opts);
    const BenchmarkSpec bench = makeBenchmark(param.bench);

    // Per-loop compile checks.
    const bool chains_on = cfg.cacheOrg != CacheOrg::Unified;
    for (const LoopSpec &loop : bench.loops) {
        const CompiledLoop compiled = chain.compileLoop(bench, loop);
        EXPECT_GE(compiled.sched.schedule.ii, compiled.mii);

        std::optional<MemChains> chains;
        if (chains_on)
            chains.emplace(compiled.ddg);
        const auto err = validateSchedule(
            compiled.ddg, compiled.latency.latencies, cfg,
            compiled.sched.schedule,
            chains ? &*chains : nullptr);
        EXPECT_FALSE(err.has_value())
            << loop.name << ": " << err.value_or("");

        for (int live : maxLivePerCluster(
                 compiled.ddg, compiled.latency.latencies, cfg,
                 compiled.sched.schedule)) {
            EXPECT_LE(live, cfg.regsPerCluster) << loop.name;
        }
    }

    // Whole-benchmark simulation sanity.
    const BenchmarkRun run =
        chain.simulateBenchmark(bench, chain.compileBenchmark(bench));
    EXPECT_GT(run.total.totalCycles, 0);
    EXPECT_LT(run.total.stallCycles, run.total.totalCycles);
    EXPECT_GT(run.total.memAccesses, 0u);

    Counter classified = 0;
    for (Counter c : run.total.accessesByClass)
        classified += c;
    EXPECT_EQ(classified, run.total.memAccesses);

    if (cfg.cacheOrg == CacheOrg::Unified) {
        // A unified cache has no remote classes.
        EXPECT_EQ(run.total.accessesByClass[std::size_t(
                      AccessClass::RemoteMiss)], 0u);
    }
}

std::vector<MatrixParam>
matrix()
{
    std::vector<MatrixParam> params;
    for (const std::string &bench : mediabenchNames()) {
        params.push_back({bench, Heuristic::Ipbc,
                          CacheOrg::Interleaved});
        params.push_back({bench, Heuristic::Ibc,
                          CacheOrg::Interleaved});
        params.push_back({bench, Heuristic::Base,
                          CacheOrg::Unified});
        params.push_back({bench, Heuristic::Ibc,
                          CacheOrg::MultiVliw});
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, IntegrationMatrix, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<MatrixParam> &info) {
        return info.param.label();
    });

} // namespace
} // namespace vliw
