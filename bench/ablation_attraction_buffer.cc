/**
 * @file
 * Section 5.2 / 5.4 ablation: Attraction Buffer capacity sweep and
 * the "attractable" compiler hints. The paper observes that one
 * epicdec loop schedules 19 memory instructions into one cluster,
 * overflowing small buffers, and that hints (marking only the K
 * most profitable loads attractable) recover most of the loss for
 * 8-entry buffers while barely affecting other benchmarks.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

namespace {

Cycles
stallFor(int ab_entries, Heuristic h, bool hints,
         const std::string &only = "")
{
    api::SweepRequest req = arm(
        ab_entries == 0
            ? std::string("interleaved")
            : "interleaved-ab:ab" + std::to_string(ab_entries),
        schedulerKey(h));
    req.options.abHints = hints;
    req.options.abHintBudget = std::max(1, ab_entries / 2);
    if (!only.empty())
        req.workloads = {only};
    return suiteStall(suiteRuns(req));
}

} // namespace

int
main()
{
    std::printf("Ablation: Attraction Buffer capacity and hints\n");
    std::printf("==============================================\n\n");

    const int sizes[] = {0, 4, 8, 16, 32};

    std::printf("suite stall cycles by AB capacity (no hints)\n");
    TextTable tab({"AB entries", "IBC stall", "IPBC stall",
                   "IBC vs none", "IPBC vs none"});
    const Cycles base_ibc = stallFor(0, Heuristic::Ibc, false);
    const Cycles base_ipbc = stallFor(0, Heuristic::Ipbc, false);
    for (int entries : sizes) {
        const Cycles s_ibc = stallFor(entries, Heuristic::Ibc,
                                      false);
        const Cycles s_ipbc = stallFor(entries, Heuristic::Ipbc,
                                       false);
        tab.newRow();
        tab.cell(entries == 0 ? std::string("none")
                              : std::to_string(entries));
        tab.cell(std::int64_t(s_ibc));
        tab.cell(std::int64_t(s_ipbc));
        tab.percentCell(1.0 - double(s_ibc) / double(base_ibc));
        tab.percentCell(1.0 - double(s_ipbc) / double(base_ipbc));
    }
    tab.print(std::cout);

    std::printf("\nepicdec (the 19-op-chain benchmark): hints on "
                "small buffers\n");
    std::printf("NOTE: the paper reports 13-32%% stall gains from "
                "hints on epicdec.\nIn this reproduction hints are "
                "counter-productive: our attraction hits\nalso "
                "relieve memory-bus queueing (loads scheduled at the "
                "remote-miss\nlatency stall only through bus "
                "contention), and buffers flush at loop\nboundaries, "
                "so restricting installs removes bus relief without\n"
                "preventing any useful-entry eviction. See "
                "EXPERIMENTS.md (E8).\n");
    TextTable ep({"config", "stall (no hints)", "stall (hints)",
                  "hint gain"});
    for (int entries : {8, 16}) {
        for (Heuristic h : {Heuristic::Ibc, Heuristic::Ipbc}) {
            const Cycles plain = stallFor(entries, h, false,
                                          "epicdec");
            const Cycles hinted = stallFor(entries, h, true,
                                           "epicdec");
            ep.newRow();
            ep.cell(std::to_string(entries) + "-entry " +
                    heuristicName(h));
            ep.cell(std::int64_t(plain));
            ep.cell(std::int64_t(hinted));
            ep.percentCell(plain == 0 ? 0.0
                : 1.0 - double(hinted) / double(plain));
        }
    }
    ep.print(std::cout);

    std::printf("\nhints on the full suite (should be nearly "
                "neutral, paper Section 5.2)\n");
    TextTable full({"config", "stall (no hints)", "stall (hints)"});
    for (int entries : {8, 16}) {
        const Cycles plain = stallFor(entries, Heuristic::Ipbc,
                                      false);
        const Cycles hinted = stallFor(entries, Heuristic::Ipbc,
                                       true);
        full.newRow();
        full.cell(std::to_string(entries) + "-entry IPBC");
        full.cell(std::int64_t(plain));
        full.cell(std::int64_t(hinted));
    }
    full.print(std::cout);
    return 0;
}
