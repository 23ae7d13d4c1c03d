/**
 * @file
 * Tests for the experiment engine: grid expansion, the worker pool,
 * compile-result memoization, the determinism contract of
 * api::Session::sweep (parallel == serial == cache off == direct
 * Toolchain, bit for bit), and the report serialisers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <sstream>

#include "api/api.hh"
#include "dist/compile_store.hh"
#include "engine/compile_cache.hh"
#include "engine/report.hh"
#include "engine/worker_pool.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

using api::Session;
using api::SessionOptions;
using api::SweepRequest;
using engine::CompileCacheStats;
using engine::ExperimentGrid;
using engine::ExperimentResult;
using engine::ExperimentSpec;
using engine::WorkerPool;

/** Field-by-field equality over everything SimStats records. */
::testing::AssertionResult
simStatsEqual(const SimStats &a, const SimStats &b)
{
    if (a.totalCycles != b.totalCycles)
        return ::testing::AssertionFailure()
            << "totalCycles " << a.totalCycles << " vs "
            << b.totalCycles;
    if (a.stallCycles != b.stallCycles)
        return ::testing::AssertionFailure()
            << "stallCycles " << a.stallCycles << " vs "
            << b.stallCycles;
    if (a.accessesByClass != b.accessesByClass)
        return ::testing::AssertionFailure() << "accessesByClass";
    if (a.stallByClass != b.stallByClass)
        return ::testing::AssertionFailure() << "stallByClass";
    if (a.remoteHitFactors.multiCluster !=
            b.remoteHitFactors.multiCluster ||
        a.remoteHitFactors.unclearPreferred !=
            b.remoteHitFactors.unclearPreferred ||
        a.remoteHitFactors.notInPreferred !=
            b.remoteHitFactors.notInPreferred ||
        a.remoteHitFactors.granularity !=
            b.remoteHitFactors.granularity)
        return ::testing::AssertionFailure() << "remoteHitFactors";
    if (a.dynamicOps != b.dynamicOps || a.dynamicCopies != b.dynamicCopies)
        return ::testing::AssertionFailure() << "dynamic op counts";
    if (a.memAccesses != b.memAccesses || a.abHits != b.abHits)
        return ::testing::AssertionFailure() << "memAccesses/abHits";
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
resultsEqual(const std::vector<ExperimentResult> &a,
             const std::vector<ExperimentResult> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
            << "result counts " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].spec.label() != b[i].spec.label())
            return ::testing::AssertionFailure()
                << "order differs at " << i << ": "
                << a[i].spec.label() << " vs " << b[i].spec.label();
        auto stats = simStatsEqual(a[i].run().total, b[i].run().total);
        if (!stats)
            return ::testing::AssertionFailure()
                << a[i].spec.label() << ": " << stats.message();
        if (a[i].run().loops.size() != b[i].run().loops.size())
            return ::testing::AssertionFailure()
                << a[i].spec.label() << ": loop counts differ";
        for (std::size_t l = 0; l < a[i].run().loops.size(); ++l) {
            const LoopRun &la = a[i].run().loops[l];
            const LoopRun &lb = b[i].run().loops[l];
            if (la.ii != lb.ii || la.unrollFactor != lb.unrollFactor ||
                la.stageCount != lb.stageCount ||
                la.copies != lb.copies ||
                la.unchainedInvocations != lb.unchainedInvocations)
                return ::testing::AssertionFailure()
                    << a[i].spec.label() << "/" << la.name
                    << ": loop fields differ";
            auto loop_stats = simStatsEqual(la.sim, lb.sim);
            if (!loop_stats)
                return ::testing::AssertionFailure()
                    << a[i].spec.label() << "/" << la.name << ": "
                    << loop_stats.message();
        }
    }
    return ::testing::AssertionSuccess();
}

/** The experiments of @p req swept on @p session, in grid order. */
std::vector<ExperimentResult>
sweep(Session &session, const SweepRequest &req)
{
    auto res = session.sweep(req);
    if (!res.ok()) {
        ADD_FAILURE() << res.status().toString();
        return {};
    }
    EXPECT_EQ(res.value().failedCount(), 0u);
    return std::move(res.value().experiments);
}

// ---- grid expansion ----

TEST(ExperimentGrid, DefaultGridCoversSuiteTimesArchitectures)
{
    ExperimentGrid grid;
    EXPECT_EQ(grid.size(), mediabenchNames().size() *
                               engine::archNames().size());
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), grid.size());

    std::set<std::string> labels;
    for (const ExperimentSpec &spec : specs)
        labels.insert(spec.label());
    EXPECT_EQ(labels.size(), specs.size()) << "labels not unique";
}

TEST(ExperimentGrid, ExpansionIsBenchMajorRowMajor)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec", "rasta"};
    grid.archs = {"interleaved", "unified1"};
    grid.heuristics = {"base", "ipbc"};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    EXPECT_EQ(specs[0].label(), "gsmdec/interleaved/BASE/selective");
    EXPECT_EQ(specs[1].label(), "gsmdec/interleaved/IPBC/selective");
    EXPECT_EQ(specs[2].label(), "gsmdec/unified1/BASE/selective");
    EXPECT_EQ(specs[4].label(), "rasta/interleaved/BASE/selective");
    EXPECT_EQ(specs[7].label(), "rasta/unified1/IPBC/selective");
}

TEST(ExperimentGrid, OptionAxesReachToolchainOptions)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec"};
    grid.archs = {"interleaved"};
    grid.alignment = {true, false};
    grid.chains = {true, false};
    grid.versioning = {false, true};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    EXPECT_TRUE(specs[0].opts.varAlignment);
    EXPECT_TRUE(specs[0].opts.memChains);
    EXPECT_FALSE(specs[0].opts.loopVersioning);
    EXPECT_TRUE(specs[1].opts.loopVersioning);
    EXPECT_FALSE(specs[2].opts.memChains);
    EXPECT_FALSE(specs[4].opts.varAlignment);
}

TEST(ExperimentGrid, UnknownAxisNamesPanic)
{
    ExperimentGrid grid;
    grid.archs = {"no-such-arch"};
    EXPECT_THROW(grid.expand(), std::logic_error);
}

// ---- worker pool ----

TEST(WorkerPool, RunsEveryJobExactlyOnce)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    constexpr std::size_t kJobs = 500;
    std::vector<std::atomic<int>> hits(kJobs);
    parallelFor(pool, kJobs,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(WorkerPool, ReusableAcrossBatchesAndWaitIsABarrier)
{
    WorkerPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), 32 * (batch + 1));
    }
}

TEST(WorkerPool, SingleThreadRunsFifo)
{
    WorkerPool pool(1);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait();
    ASSERT_EQ(order.size(), 16u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(WorkerPool, PriorityOrdersQueuedWorkFifoWithinPriority)
{
    WorkerPool pool(1);
    // Park the single worker so the queue builds up, then release
    // it and observe the drain order. Submit only once the worker
    // has entered the gate job: a worker still idle when the first
    // prioritised job lands would run that job ahead of the rest.
    std::promise<void> entered;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.submit([&entered, open] {
        entered.set_value();
        open.wait();
    });
    entered.get_future().wait();

    std::vector<int> order;
    pool.submit([&order] { order.push_back(1); }, /*priority=*/1);
    pool.submit([&order] { order.push_back(5); }, /*priority=*/5);
    pool.submit([&order] { order.push_back(3); }, /*priority=*/3);
    pool.submit([&order] { order.push_back(50); }, /*priority=*/5);
    gate.set_value();
    pool.wait();
    EXPECT_EQ(order, (std::vector<int>{5, 50, 3, 1}));
}

TEST(WorkerPool, EscapedExceptionIsCapturedNotTerminate)
{
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    // "Jobs should not throw" -- but one that does must neither
    // std::terminate the process nor wedge the barrier.
    pool.submit([] { throw std::runtime_error("escaped!"); });
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);

    const std::exception_ptr err = pool.takeFirstError();
    ASSERT_TRUE(err);
    try {
        std::rethrow_exception(err);
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "escaped!");
    }
    // Collecting clears the slot; the pool stays usable.
    EXPECT_FALSE(pool.takeFirstError());
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(WorkerPool, EnsureThreadsGrowsButNeverShrinks)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    pool.ensureThreads(3);
    EXPECT_EQ(pool.threadCount(), 3);
    pool.ensureThreads(2);
    EXPECT_EQ(pool.threadCount(), 3);
    std::atomic<int> ran{0};
    parallelFor(pool, 64, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 64);
}

// ---- compile key / cache ----

TEST(CompileKey, ExcludesSimulationOnlyHardware)
{
    const ToolchainOptions opts;
    // Attraction Buffers, unified ports, memory buses: execution
    // hardware the compiler never reads.
    EXPECT_EQ(engine::compileKey(MachineConfig::paperInterleaved(),
                                 opts, "gsmdec"),
              engine::compileKey(MachineConfig::paperInterleavedAb(),
                                 opts, "gsmdec"));
    MachineConfig ports = MachineConfig::paperUnified(1);
    ports.unifiedPorts += 2;
    EXPECT_EQ(engine::compileKey(MachineConfig::paperUnified(1),
                                 opts, "gsmdec"),
              engine::compileKey(ports, opts, "gsmdec"));
}

TEST(CompileKey, CoversCompileRelevantInputs)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const ToolchainOptions opts;
    const std::string base = engine::compileKey(cfg, opts, "gsmdec");

    EXPECT_NE(base, engine::compileKey(cfg, opts, "rasta"));
    EXPECT_NE(base,
              engine::compileKey(MachineConfig::paperUnified(1),
                                 opts, "gsmdec"));
    EXPECT_NE(base,
              engine::compileKey(MachineConfig::paperUnified(5),
                                 opts, "gsmdec"));

    ToolchainOptions changed = opts;
    changed.heuristic = Heuristic::Base;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.unroll = UnrollPolicy::Ouf;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.varAlignment = false;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.memChains = false;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.profileSeed += 1;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.loopVersioning = true;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));

    // With the hint pass enabled the Attraction Buffers enter the
    // compiler's view, so the AB arms must stop sharing.
    ToolchainOptions hinted = opts;
    hinted.abHints = true;
    EXPECT_NE(engine::compileKey(MachineConfig::paperInterleaved(),
                                 hinted, "gsmdec"),
              engine::compileKey(MachineConfig::paperInterleavedAb(),
                                 hinted, "gsmdec"));
}

TEST(CompileCache, SharesCompilesAcrossArchVariants)
{
    SweepRequest req;
    req.workloads = {"gsmdec", "rasta"};
    req.archs = {"interleaved", "interleaved-ab"};

    Session cached{SessionOptions{/*jobs=*/1, /*compileCache=*/true}};
    const auto warm = sweep(cached, req);
    const CompileCacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.misses, 2u);    // one compile per benchmark
    EXPECT_EQ(stats.hits, 2u);      // one reuse per benchmark
    for (const std::string &bench : req.workloads) {
        ASSERT_TRUE(stats.hitsByBench.count(bench)) << bench;
        EXPECT_GE(stats.hitsByBench.at(bench), 1u) << bench;
    }

    // Memoization must be invisible in the results.
    Session cold{SessionOptions{/*jobs=*/1, /*compileCache=*/false}};
    const auto cold_results = sweep(cold, req);
    EXPECT_TRUE(resultsEqual(warm, cold_results));
    EXPECT_EQ(cold.cacheStats().hits + cold.cacheStats().misses, 0u);
}

TEST(CompileCache, DistinctLatenciesDoNotShare)
{
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"unified1", "unified5"};
    req.schedulers = {"base"};

    Session session{SessionOptions{/*jobs=*/1, /*compileCache=*/true}};
    sweep(session, req);
    EXPECT_EQ(session.cacheStats().misses, 2u);
    EXPECT_EQ(session.cacheStats().hits, 0u);
}

TEST(CompileCache, PersistsAcrossSweeps)
{
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved"};

    Session session{SessionOptions{/*jobs=*/2, /*compileCache=*/true}};
    sweep(session, req);
    sweep(session, req);
    EXPECT_EQ(session.cacheStats().misses, 1u);
    EXPECT_EQ(session.cacheStats().hits, 1u);
}

TEST(CompileCache, CapacityEvictsLruAndCountsEvictions)
{
    engine::CompileCache cache(/*capacity=*/1);
    const ToolchainOptions opts;
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const BenchmarkSpec rasta = makeBenchmark("rasta");
    const MachineConfig cfg = MachineConfig::paperInterleaved();

    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Second key evicts the first (LRU, capacity 1)...
    cache.compile(cfg, opts, rasta);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // ...so the first compiles again: a miss, not a hit.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().evictions, 2u);

    // Unbounded caches never evict.
    engine::CompileCache unbounded;
    unbounded.compile(cfg, opts, gsm);
    unbounded.compile(cfg, opts, rasta);
    EXPECT_EQ(unbounded.size(), 2u);
    EXPECT_EQ(unbounded.stats().evictions, 0u);
}

TEST(CompileCache, ScriptedStoreSequenceCountsExactly)
{
    char tmpl[] = "/tmp/wivliw_cache_XXXXXX";
    const std::string dir = mkdtemp(tmpl);
    auto store = std::make_shared<dist::CompileStore>(dir);
    ASSERT_TRUE(store->status().ok());

    const ToolchainOptions opts;
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const BenchmarkSpec rasta = makeBenchmark("rasta");
    const MachineConfig cfg = MachineConfig::paperInterleaved();

    // Capacity 1 so every second key round-trips the store.
    engine::CompileCache cache(/*capacity=*/1, store);

    // Cold: memory miss, store miss, publication.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().storeMisses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);

    // Warm in memory: the store is not even consulted.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().storeHits, 0u);
    EXPECT_EQ(cache.stats().storeMisses, 1u);

    // New key evicts gsmdec and publishes rasta.
    cache.compile(cfg, opts, rasta);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().storeMisses, 2u);
    EXPECT_EQ(cache.stats().stores, 2u);

    // gsmdec again: memory miss, but the store still has it — a
    // store hit, no compile, no re-publication.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().storeHits, 1u);
    EXPECT_EQ(cache.stats().stores, 2u);

    // A brand-new cache on the same directory starts fully warm.
    engine::CompileCache fresh(/*capacity=*/0, store);
    fresh.compile(cfg, opts, gsm);
    fresh.compile(cfg, opts, rasta);
    EXPECT_EQ(fresh.stats().misses, 2u);
    EXPECT_EQ(fresh.stats().storeHits, 2u);
    EXPECT_EQ(fresh.stats().storeMisses, 0u);
    EXPECT_EQ(fresh.stats().stores, 0u);

    std::string cleanup = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
}

TEST(CompileCache, FailedCompilesAreNotCached)
{
    engine::CompileCache cache;
    ToolchainOptions opts;
    opts.maxIiTries = 1;    // no schedule fits in one II attempt
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const MachineConfig cfg = MachineConfig::paperInterleaved();

    EXPECT_THROW(cache.compile(cfg, opts, gsm), CompileError);
    // The failure vacated the slot: a retry with workable options
    // compiles fresh instead of replaying the cached exception.
    EXPECT_EQ(cache.size(), 0u);
    opts.maxIiTries = 64;
    EXPECT_NO_THROW(cache.compile(cfg, opts, gsm));
}

// ---- determinism ----

class SweepDeterminism : public ::testing::Test
{
  protected:
    static SweepRequest
    request()
    {
        SweepRequest req;
        req.workloads = {"gsmdec", "epicdec"};
        req.archs = {"interleaved", "interleaved-ab", "unified5"};
        req.schedulers = {"ipbc"};
        return req;
    }
};

TEST_F(SweepDeterminism, ParallelMatchesSerialBitForBit)
{
    Session serial{SessionOptions{/*jobs=*/1, /*compileCache=*/true}};
    Session parallel{SessionOptions{/*jobs=*/8, /*compileCache=*/true}};
    const auto a = sweep(serial, request());
    const auto b = sweep(parallel, request());
    EXPECT_TRUE(resultsEqual(a, b));
}

TEST_F(SweepDeterminism, CacheOffMatchesCacheOn)
{
    Session cached{SessionOptions{/*jobs=*/8, /*compileCache=*/true}};
    Session cold{SessionOptions{/*jobs=*/8, /*compileCache=*/false}};
    EXPECT_TRUE(resultsEqual(sweep(cached, request()),
                             sweep(cold, request())));
}

TEST_F(SweepDeterminism, SweepMatchesDirectToolchain)
{
    Session session{SessionOptions{/*jobs=*/4, /*compileCache=*/true}};
    for (const ExperimentResult &r : sweep(session, request())) {
        const Toolchain chain(r.spec.arch.config, r.spec.opts);
        const BenchmarkSpec bench = makeBenchmark(r.spec.bench);
        const BenchmarkRun direct =
            chain.simulateBenchmark(bench, chain.compileBenchmark(bench));
        EXPECT_TRUE(simStatsEqual(direct.total, r.run().total))
            << r.spec.label();
    }
}

TEST_F(SweepDeterminism, RepeatedRunsAreIdentical)
{
    Session session{SessionOptions{/*jobs=*/8, /*compileCache=*/true}};
    const auto a = sweep(session, request());
    const auto b = sweep(session, request());
    EXPECT_TRUE(resultsEqual(a, b));
}

// Versioning compiles a second loop body per hot chain; it must not
// disturb the determinism contract either.
TEST(SweepDeterminismVersioning, ParallelMatchesSerial)
{
    SweepRequest req;
    req.workloads = {"epicdec"};
    req.archs = {"interleaved"};
    req.versioning = {false, true};
    Session serial{SessionOptions{/*jobs=*/1, /*compileCache=*/true}};
    Session parallel{SessionOptions{/*jobs=*/8, /*compileCache=*/true}};
    EXPECT_TRUE(resultsEqual(sweep(serial, req), sweep(parallel, req)));
}

// ---- report ----

class ReportTest : public ::testing::Test
{
  protected:
    static const std::vector<ExperimentResult> &
    results()
    {
        static const std::vector<ExperimentResult> r = [] {
            SweepRequest req;
            req.workloads = {"gsmdec"};
            req.archs = {"interleaved", "interleaved-ab"};
            Session session{
                SessionOptions{/*jobs=*/2, /*compileCache=*/true}};
            return sweep(session, req);
        }();
        return r;
    }
};

TEST_F(ReportTest, RowFlattensRunAndSpec)
{
    const engine::ReportRow row = engine::makeRow(results()[1]);
    EXPECT_EQ(row.bench, "gsmdec");
    EXPECT_EQ(row.arch, "interleaved-ab");
    EXPECT_EQ(row.heuristic, "IPBC");
    EXPECT_EQ(row.unroll, "selective");
    EXPECT_EQ(row.cycles, results()[1].run().total.totalCycles);
    EXPECT_EQ(row.cycles, row.computeCycles + row.stallCycles);
    EXPECT_GT(row.memAccesses, 0u);
    EXPECT_GT(row.copies, 0);
}

TEST_F(ReportTest, TableHasOneRowPerExperiment)
{
    const TextTable tab = engine::sweepTable(results());
    EXPECT_EQ(tab.rowCount(), results().size());
    EXPECT_EQ(tab.columnCount(), 10u);
}

TEST_F(ReportTest, CsvHasHeaderAndOneLinePerExperiment)
{
    std::ostringstream os;
    engine::writeCsv(os, results());
    const std::string text = os.str();
    EXPECT_EQ(std::size_t(std::count(text.begin(), text.end(), '\n')),
              results().size() + 1);
    EXPECT_EQ(text.rfind("benchmark,arch,heuristic", 0), 0u);
    EXPECT_NE(text.find("gsmdec,interleaved-ab,IPBC,selective"),
              std::string::npos);
}

TEST_F(ReportTest, EngineAlwaysMeasuresPerJobTiming)
{
    for (const ExperimentResult &r : results()) {
        EXPECT_GE(r.compileMs, 0.0);
        // Simulation always runs, so its wall time cannot be zero.
        EXPECT_GT(r.simulateMs, 0.0);
    }
}

TEST_F(ReportTest, TimingColumnsAppearOnlyWhenAsked)
{
    EXPECT_EQ(engine::sweepTable(results(), true).columnCount(),
              12u);
    EXPECT_EQ(engine::sweepTable(results()).columnCount(), 10u);

    std::ostringstream csv;
    engine::writeCsv(csv, results(), true);
    EXPECT_NE(csv.str().find(",compile_ms,simulate_ms"),
              std::string::npos);

    std::ostringstream json;
    engine::writeJson(json, results(), nullptr, true);
    EXPECT_NE(json.str().find("\"timing\": {\"compile_ms\": "),
              std::string::npos);
    EXPECT_NE(json.str().find("\"simulate_ms\""),
              std::string::npos);

    std::ostringstream bare;
    engine::writeJson(bare, results());
    EXPECT_EQ(bare.str().find("compile_ms"), std::string::npos);
}

TEST_F(ReportTest, JsonIsBalancedAndCarriesCacheStats)
{
    CompileCacheStats stats;
    stats.hits = 3;
    stats.misses = 2;
    stats.hitsByBench["gsmdec"] = 3;
    std::ostringstream os;
    engine::writeJson(os, results(), &stats);
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
    EXPECT_NE(text.find("\"experiments\""), std::string::npos);
    EXPECT_NE(text.find("\"cache\": {\"hits\": 3, \"misses\": 2"),
              std::string::npos);
    EXPECT_NE(text.find("\"arch\": \"interleaved-ab\""),
              std::string::npos);

    // Without stats the cache object is omitted entirely.
    std::ostringstream bare;
    engine::writeJson(bare, results());
    EXPECT_EQ(bare.str().find("\"cache\""), std::string::npos);
}

} // namespace
} // namespace vliw
