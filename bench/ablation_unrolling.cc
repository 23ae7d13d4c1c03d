/**
 * @file
 * Section 4.3.1 step 1 ablation: the four unrolling policies (none,
 * unroll x N, OUF, selective) compared on local hit ratio, cycle
 * count, code growth (static operations after unrolling) and
 * average II -- the trade-off selective unrolling navigates.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

int
main()
{
    std::printf("Ablation: unrolling policy (IPBC, ABs on)\n");
    std::printf("=========================================\n\n");

    TextTable tab({"policy", "AMEAN local hits", "total cycles",
                   "static ops", "avg II", "avg factor"});

    for (const char *unroll : {"none", "xN", "ouf", "selective"}) {
        std::vector<double> local_hits;
        Cycles cycles = 0;
        std::int64_t static_ops = 0;
        double ii_sum = 0.0;
        double factor_sum = 0.0;
        int loops = 0;

        for (const BenchmarkRun &run :
             suiteRuns(arm("interleaved-ab", "ipbc", unroll))) {
            local_hits.push_back(run.total.localHitRatio());
            cycles += run.total.totalCycles;
            for (const LoopRun &lr : run.loops) {
                ii_sum += lr.ii;
                factor_sum += lr.unrollFactor;
                ++loops;
            }
            // Code growth: the sweep's own compiles, from the cache.
            const auto compiled = session().compile(
                {.workload = run.name, .arch = "interleaved-ab",
                 .scheduler = "ipbc", .unroll = unroll});
            for (const CompiledLoopVersions &loop :
                 compiled.value()->loops)
                static_ops += loop.primary.ddg.numNodes();
        }

        tab.newRow().cell(unrollPolicyName(
            session().registries().unrolls.resolve(unroll).value()));
        tab.percentCell(amean(local_hits));
        tab.cell(std::int64_t(cycles));
        tab.cell(static_ops);
        tab.cell(ii_sum / loops, 1);
        tab.cell(factor_sum / loops, 1);
    }
    tab.print(std::cout);

    std::printf("\nOUF maximises locality; selective trades a "
                "little of it for shorter\nschedules on loops where "
                "full unrolling does not pay (paper Section "
                "4.3.1).\n");
    return 0;
}
