/**
 * @file
 * End-to-end tests for `api::Session`: built-in names resolved
 * through the registries produce results bit-identical to the
 * direct Toolchain path, custom registered architectures and
 * workloads run through the full pipeline, and every bad input —
 * unknown names, malformed keys, invalid options, unschedulable
 * requests — surfaces as an `api::Status` (the fact that these
 * tests run to completion is itself the proof that no façade path
 * calls `vliw_fatal`, which would exit the test process).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>

#include "api/api.hh"
#include "engine/report.hh"
#include "workloads/kernels.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

using api::RunRequest;
using api::Session;
using api::SessionOptions;
using api::Status;
using api::StatusCode;
using api::SweepRequest;

/** A small custom workload: strided 2-byte stream accumulate. */
BenchmarkSpec
makeCustomBench()
{
    BenchmarkSpec bench;
    const SymbolId src = bench.addSymbol(
        "src", 4 * 1024, SymbolSpec::Storage::Heap);
    const SymbolId dst = bench.addSymbol(
        "dst", 4 * 1024, SymbolSpec::Storage::Heap);

    KernelBuilder kb("accumulate");
    const NodeId a = kb.load(src, 2, 2, {}, "ld_a");
    const NodeId b = kb.load(dst, 2, 2, {}, "ld_b");
    const NodeId s = kb.compute(OpKind::IntAlu, {a, b}, "sum");
    const NodeId st = kb.store(dst, 2, 2, s, {}, "st");
    kb.chain({b, st});
    bench.loops.push_back(kb.take(512, 2));
    return bench;
}

// ---- equivalence with the pre-façade path ----

TEST(Session, RunMatchesDirectToolchainBitForBit)
{
    Session session;
    RunRequest req;
    req.workload = "gsmdec";
    req.arch = "interleaved-ab";
    req.scheduler = "ipbc";
    req.unroll = "selective";
    auto res = session.run(req);
    ASSERT_TRUE(res.ok()) << res.status().toString();

    ToolchainOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    opts.unroll = UnrollPolicy::Selective;
    const Toolchain chain(MachineConfig::paperInterleavedAb(), opts);
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const BenchmarkRun direct =
        chain.simulateBenchmark(gsm, chain.compileBenchmark(gsm));

    const BenchmarkRun &run = res.value().run();
    EXPECT_EQ(run.total.totalCycles, direct.total.totalCycles);
    EXPECT_EQ(run.total.stallCycles, direct.total.stallCycles);
    EXPECT_EQ(run.total.memAccesses, direct.total.memAccesses);
    EXPECT_EQ(run.total.abHits, direct.total.abHits);
    ASSERT_EQ(run.loops.size(), direct.loops.size());
    for (std::size_t i = 0; i < run.loops.size(); ++i) {
        EXPECT_EQ(run.loops[i].ii, direct.loops[i].ii);
        EXPECT_EQ(run.loops[i].unrollFactor,
                  direct.loops[i].unrollFactor);
        EXPECT_EQ(run.loops[i].sim.totalCycles,
                  direct.loops[i].sim.totalCycles);
    }
}

TEST(Session, SweepMatchesRunPerCell)
{
    Session session{SessionOptions{/*jobs=*/2, true}};
    SweepRequest sweep;
    sweep.workloads = {"gsmdec", "rasta"};
    sweep.archs = {"interleaved", "unified5"};
    sweep.schedulers = {"base", "ipbc"};
    auto res = session.sweep(sweep);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    ASSERT_EQ(res.value().experiments.size(), 8u);

    // Spot-check one cell against a fresh single run.
    const engine::ExperimentResult &cell =
        res.value().experiments[5];   // gsmdec x unified5 order...
    RunRequest req;
    req.workload = cell.spec.bench;
    req.arch = cell.spec.arch.name;
    req.scheduler =
        cell.spec.opts.heuristic == Heuristic::Base ? "base" : "ipbc";
    auto single = Session().run(req);
    ASSERT_TRUE(single.ok()) << single.status().toString();
    EXPECT_EQ(single.value().run().total.totalCycles,
              cell.run().total.totalCycles);
}

TEST(Session, DatasetBatchMatchesGridSemantics)
{
    Session session;
    RunRequest req;
    req.workload = "g721dec";
    req.arch = "interleaved";
    req.datasets = 3;
    auto res = session.run(req);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    ASSERT_EQ(res.value().datasetRuns().size(), 3u);
    // Dataset 0 is the classic single-input run.
    RunRequest one = req;
    one.datasets = 1;
    auto single = Session().run(one);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(res.value().datasetRuns()[0].total.totalCycles,
              single.value().run().total.totalCycles);
}

// ---- custom registrations run end-to-end ----

TEST(Session, CustomArchRunsEndToEnd)
{
    Session session;
    MachineConfig cfg = MachineConfig::paperInterleaved();
    cfg.numClusters = 2;
    cfg.regBuses = 2;
    ASSERT_TRUE(session.registries()
                    .archs.add("tiny2", cfg, "2-cluster variant")
                    .ok());

    RunRequest req;
    req.workload = "gsmdec";
    req.arch = "tiny2";
    auto res = session.run(req);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_GT(res.value().run().total.totalCycles, 0);

    // And parametric keys compose with custom bases.
    auto cfg2 = session.resolveArch("tiny2:b16k");
    ASSERT_TRUE(cfg2.ok());
    EXPECT_EQ(cfg2.value().cacheBytes, 16 * 1024);
    EXPECT_EQ(cfg2.value().numClusters, 2);
}

TEST(Session, CustomWorkloadRunsEndToEndAndSweeps)
{
    Session session;
    ASSERT_TRUE(session.registries()
                    .workloads.add("accumulate", makeCustomBench())
                    .ok());

    RunRequest req;
    req.workload = "accumulate";
    req.arch = "interleaved-ab";
    auto res = session.run(req);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_GT(res.value().run().total.totalCycles, 0);
    EXPECT_EQ(res.value().run().name, "accumulate");

    // The custom workload expands through sweeps like a built-in.
    SweepRequest sweep;
    sweep.workloads = {"accumulate"};
    sweep.archs = {"interleaved", "interleaved-ab"};
    auto grid = session.sweep(sweep);
    ASSERT_TRUE(grid.ok()) << grid.status().toString();
    ASSERT_EQ(grid.value().experiments.size(), 2u);
    EXPECT_EQ(grid.value().experiments[0].run().name, "accumulate");
    // Arch variants that agree on compile inputs share compiles.
    EXPECT_GE(grid.value().cache.hits, 1u);
}

TEST(Session, RegistrationsAreSessionScoped)
{
    Session a;
    ASSERT_TRUE(a.registries()
                    .workloads.add("accumulate", makeCustomBench())
                    .ok());
    Session b;
    EXPECT_FALSE(b.registries().workloads.contains("accumulate"));
    const auto res = b.run({.workload = "accumulate"});
    EXPECT_EQ(res.status().code(), StatusCode::NotFound);
}

// ---- structured errors, never process exits ----

TEST(Session, UnknownNamesComeBackAsNotFoundWithValidNames)
{
    Session session;
    {
        auto res = session.run({.workload = "quake3"});
        ASSERT_FALSE(res.ok());
        EXPECT_EQ(res.status().code(), StatusCode::NotFound);
        EXPECT_NE(res.status().context().find("gsmdec"),
                  std::string::npos);
    }
    {
        auto res = session.run(
            {.workload = "gsmdec", .arch = "pentium"});
        EXPECT_EQ(res.status().code(), StatusCode::NotFound);
        EXPECT_NE(res.status().context().find("interleaved"),
                  std::string::npos);
    }
    {
        auto res = session.run(
            {.workload = "gsmdec", .scheduler = "smt"});
        EXPECT_EQ(res.status().code(), StatusCode::NotFound);
        EXPECT_NE(res.status().context().find("ipbc"),
                  std::string::npos);
    }
    {
        RunRequest req;
        req.workload = "gsmdec";
        req.unroll = "x2";
        auto res = session.run(req);
        EXPECT_EQ(res.status().code(), StatusCode::NotFound);
        EXPECT_NE(res.status().context().find("selective"),
                  std::string::npos);
    }
}

TEST(Session, SweepFailsAtomicallyOnAnyBadAxis)
{
    Session session;
    SweepRequest sweep;
    sweep.workloads = {"gsmdec"};
    sweep.archs = {"interleaved", "no-such-arch"};
    auto res = session.sweep(sweep);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::NotFound);

    sweep.archs = {"interleaved"};
    sweep.schedulers = {"base", "bogus"};
    EXPECT_EQ(session.sweep(sweep).status().code(),
              StatusCode::NotFound);

    sweep.schedulers = {"base"};
    sweep.unrolls = {"bogus"};
    EXPECT_EQ(session.sweep(sweep).status().code(),
              StatusCode::NotFound);

    sweep.unrolls = {"none"};
    sweep.datasets = 0;
    EXPECT_EQ(session.sweep(sweep).status().code(),
              StatusCode::InvalidArgument);
}

TEST(Session, InvalidOptionsRejectedAtTheBoundary)
{
    Session session;
    RunRequest req;
    req.workload = "gsmdec";

    req.options.abHintBudget = -2;
    EXPECT_EQ(session.run(req).status().code(),
              StatusCode::InvalidArgument);
    req.options.abHintBudget = 8;

    req.options.maxIiTries = 0;
    EXPECT_EQ(session.run(req).status().code(),
              StatusCode::InvalidArgument);
    req.options.maxIiTries = 64;

    req.datasets = 0;
    EXPECT_EQ(session.run(req).status().code(),
              StatusCode::InvalidArgument);
    req.datasets = 1;

    EXPECT_TRUE(session.run(req).ok());
}

TEST(Session, UnschedulableRequestIsFailedPrecondition)
{
    Session session;
    RunRequest req;
    req.workload = "gsmdec";
    // One II attempt is legal at the boundary but (far) too few
    // for the suite's recurrence-heavy loops: the CompileError
    // surfaces as FailedPrecondition, not a process exit.
    req.options.maxIiTries = 1;
    auto res = session.run(req);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::FailedPrecondition);
    EXPECT_NE(res.status().message().find("failed to schedule"),
              std::string::npos);
}

TEST(Session, IndivisibleUnrollFactorIsFailedPrecondition)
{
    Session session;
    BenchmarkSpec bench = makeCustomBench();
    bench.loops.front().avgIterations = 511;   // not divisible by 4
    ASSERT_TRUE(session.registries()
                    .workloads.add("awkward", std::move(bench))
                    .ok());
    RunRequest req;
    req.workload = "awkward";
    req.unroll = "xN";
    auto res = session.run(req);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::FailedPrecondition);
    EXPECT_NE(res.status().message().find("not divisible"),
              std::string::npos);
}

TEST(Session, SweepKeepsCompletedCellsNextToRuntimeFailures)
{
    Session session;
    BenchmarkSpec bench = makeCustomBench();
    bench.loops.front().avgIterations = 511;   // xN (4) won't divide
    ASSERT_TRUE(session.registries()
                    .workloads.add("awkward511", std::move(bench))
                    .ok());
    SweepRequest sweep;
    sweep.workloads = {"awkward511"};
    sweep.archs = {"interleaved"};
    sweep.unrolls = {"none", "xN"};   // first cell fine, second not
    auto res = session.sweep(sweep);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    ASSERT_EQ(res.value().experiments.size(), 2u);
    EXPECT_EQ(res.value().failedCount(), 1u);
    EXPECT_EQ(res.value().firstError().code(),
              StatusCode::FailedPrecondition);
    // The good cell's results survived the neighbour's failure.
    EXPECT_FALSE(res.value().experiments[0].failed());
    EXPECT_GT(res.value().experiments[0].run().total.totalCycles, 0);
    EXPECT_TRUE(res.value().experiments[1].failed());
    // And the report writers simply skip the failed cell (display
    // names come from unrollPolicyName()).
    std::ostringstream os;
    engine::writeJson(os, res.value().experiments);
    EXPECT_NE(os.str().find("\"unroll\": \"no-unroll\""),
              std::string::npos);
    EXPECT_EQ(os.str().find("\"unroll\": \"unrollxN\""),
              std::string::npos);
}

TEST(Session, SameIterationCycleIsFailedPrecondition)
{
    Session session;
    BenchmarkSpec bench;
    bench.addSymbol("z", 1024, SymbolSpec::Storage::Heap);
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 1);
    const NodeId b = g.addNode(OpKind::IntAlu, "b", 1);
    g.addEdge(a, b, DepKind::RegFlow, 0);
    g.addEdge(b, a, DepKind::RegFlow, 0);   // cycle within one iter
    LoopSpec loop;
    loop.name = "cyclic";
    loop.body = std::move(g);
    bench.loops.push_back(std::move(loop));
    ASSERT_TRUE(session.registries()
                    .workloads.add("cyclic", std::move(bench))
                    .ok());
    auto res = session.run({.workload = "cyclic"});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::FailedPrecondition);
    EXPECT_NE(res.status().message().find("same-iteration cycle"),
              std::string::npos);
}

TEST(Session, CompileServesInspectionArtifacts)
{
    Session session;
    RunRequest req;
    req.workload = "gsmdec";
    req.arch = "interleaved";
    auto compiled = session.compile(req);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    ASSERT_FALSE(compiled.value()->loops.empty());
    const CompiledLoop &loop = compiled.value()->loops[0].primary;
    EXPECT_GE(loop.sched.schedule.ii, loop.mii);

    // compile() and run() share the session's cache.
    auto res = session.run(req);
    ASSERT_TRUE(res.ok());
    EXPECT_GE(session.cacheStats().hits, 1u);
}

// ---- registration racing submission ----

/** A tiny .wvl workload named @p name. */
std::string
wvlKernel(const std::string &name)
{
    return "benchmark " + name + " {\n"
           "  symbol src size 1024\n"
           "  loop l trip 16 {\n"
           "    x = load src gran 4 stride 4\n"
           "    a = intalu from x\n"
           "  }\n"
           "}\n";
}

TEST(Session, RegisterWhileOthersSubmitAndList)
{
    // The daemon's shape: one connection registers workloads while
    // the others resolve requests and list names on the same
    // Session. Race-free under the registry lock (this suite runs
    // in the ThreadSanitizer CI leg), and every outcome is exact.
    SessionOptions so;
    so.jobs = 2;
    so.builtinWorkloads = false;
    Session session(so);
    ASSERT_TRUE(session.registerWorkloadText("", wvlKernel("seed"))
                    .ok());

    constexpr int kRegistrations = 24;
    std::thread registrar([&] {
        for (int i = 0; i < kRegistrations; ++i) {
            const std::string name = "wire" + std::to_string(i);
            auto res = session.registerWorkloadText(
                "", wvlKernel(name), "wire", "<wire>");
            ASSERT_TRUE(res.ok()) << res.status().message();
            EXPECT_EQ(res.value(), std::vector<std::string>{name});
        }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < 8; ++i) {
                RunRequest req;
                req.workload = c == 0 ? "seed" : "wire" +
                    std::to_string((c * 8 + i) % kRegistrations);
                req.arch = "interleaved";
                auto res = session.submit(req).take();
                // A name not registered yet is a clean NotFound.
                if (!res.ok()) {
                    EXPECT_EQ(res.status().code(),
                              StatusCode::NotFound)
                        << res.status().message();
                }
                if (c == 0) {
                    ASSERT_TRUE(res.ok()) << res.status().message();
                    EXPECT_GT(res.value().run().total.totalCycles, 0);
                }
                const std::vector<std::string> names =
                    session.registeredNames(
                        api::RegistryAxis::Workloads);
                EXPECT_NE(std::find(names.begin(), names.end(),
                                    "seed"),
                          names.end());
            }
        });
    }
    registrar.join();
    for (std::thread &t : clients)
        t.join();

    const std::vector<std::string> names =
        session.registeredNames(api::RegistryAxis::Workloads);
    ASSERT_EQ(names.size(), std::size_t(kRegistrations + 1));
    for (int i = 0; i < kRegistrations; ++i)
        EXPECT_EQ(names[std::size_t(i) + 1],
                  "wire" + std::to_string(i));
    RunRequest last;
    last.workload = "wire" + std::to_string(kRegistrations - 1);
    last.arch = "interleaved";
    EXPECT_TRUE(session.run(last).ok());
}

} // namespace
} // namespace vliw
