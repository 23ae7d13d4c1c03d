/**
 * @file
 * The three in-process workloads — dse_sweep, sim_batch and
 * gap_report — driven through the public vliw::api surface, plus
 * their traced pass, which replays each cell's compile stages and
 * simulation call by call on the artifact Session::compile returns.
 */

#include <sched.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

#include "api/api.hh"
#include "core/toolchain.hh"
#include "ddg/chains.hh"
#include "ddg/circuits.hh"
#include "ddg/mii.hh"
#include "ddg/unroll.hh"
#include "dist/artifact.hh"
#include "engine/report.hh"
#include "opt/gap_report.hh"
#include "opt/solver.hh"
#include "sched/lat_scheme.hh"
#include "sched/latency_assign.hh"
#include "sched/scheduler.hh"
#include "sched/unroll_policy.hh"
#include "sim/sim_workspace.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"

#include "common.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using namespace vliw;

using Golden = std::map<std::string, std::vector<std::string>>;

// ---- renderings shared with tests/golden --------------------------------

/** FNV-1a over every field that defines a schedule (golden format). */
std::uint64_t
digestSchedule(const Schedule &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto add = [&h](std::int64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= std::uint64_t(v >> (byte * 8)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    add(s.ii);
    add(s.length);
    add(s.stageCount);
    for (const PlacedOp &op : s.ops) {
        add(op.cycle);
        add(op.cluster);
    }
    for (const CopyOp &c : s.copies) {
        add(c.producer);
        add(c.fromCluster);
        add(c.toCluster);
        add(c.busStart);
        add(c.readyCycle);
    }
    return h;
}

/** Every SimStats field, in the sim_equivalence golden format. */
std::string
renderStats(const SimStats &s)
{
    std::ostringstream os;
    os << "cycles=" << s.totalCycles << " stall=" << s.stallCycles;
    os << " acc=";
    for (std::size_t i = 0; i < s.accessesByClass.size(); ++i)
        os << (i ? "/" : "") << s.accessesByClass[i];
    os << " stallby=";
    for (std::size_t i = 0; i < s.stallByClass.size(); ++i)
        os << (i ? "/" : "") << s.stallByClass[i];
    os << " factors=" << s.remoteHitFactors.multiCluster << "/"
       << s.remoteHitFactors.unclearPreferred << "/"
       << s.remoteHitFactors.notInPreferred << "/"
       << s.remoteHitFactors.granularity;
    os << " ops=" << s.dynamicOps << " copies=" << s.dynamicCopies
       << " mem=" << s.memAccesses << " abhits=" << s.abHits;
    return os.str();
}

/** Everything a cell's runs report, for iteration-to-iteration checks. */
std::string
fingerprint(const std::vector<BenchmarkRun> &runs)
{
    std::ostringstream os;
    for (const BenchmarkRun &run : runs) {
        os << renderStats(run.total) << " bal=" << run.workloadBalance
           << '\n';
        for (const LoopRun &lr : run.loops) {
            os << lr.name << " uf=" << lr.unrollFactor << " ii=" << lr.ii
               << " sc=" << lr.stageCount << " copies=" << lr.copies
               << " solver=" << lr.solver << '/' << lr.solverLowerBound
               << '/' << lr.solverNodes << ' ' << renderStats(lr.sim)
               << '\n';
        }
    }
    return os.str();
}

/** The registry name of a cell's scheduler ("ipbc", "optimal"...). */
std::string
schedulerName(const engine::ExperimentSpec &spec)
{
    std::string name = engine::schedulerLabel(spec.opts);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return name;
}

/** The registry name of a cell's unroll policy. */
std::string
unrollName(UnrollPolicy policy)
{
    switch (policy) {
      case UnrollPolicy::None:
        return "none";
      case UnrollPolicy::TimesN:
        return "xN";
      case UnrollPolicy::Ouf:
        return "ouf";
      case UnrollPolicy::Selective:
        return "selective";
    }
    throw std::runtime_error("unknown unroll policy");
}

bool
isBuiltin(const std::string &bench)
{
    const auto &names = mediabenchNames();
    return std::find(names.begin(), names.end(), bench) != names.end();
}

/** The request that compiles the same artifact as sweep cell @p r. */
api::RunRequest
compileRequest(const engine::ExperimentResult &r,
               const ToolchainOptions &base)
{
    api::RunRequest req;
    req.workload = r.spec.bench;
    req.arch = r.spec.arch.name;
    req.scheduler = schedulerName(r.spec);
    req.unroll = unrollName(r.spec.opts.unroll);
    req.options = base;
    return req;
}

std::shared_ptr<const CompiledBenchmark>
compileOrThrow(api::Session &session, const api::RunRequest &req)
{
    auto res = session.compile(req);
    if (!res.ok())
        throw std::runtime_error("compile " + req.workload + ": " +
                                 res.status().toString());
    return res.take();
}

api::SweepResult
sweepOrThrow(api::Session &session, const api::SweepRequest &req)
{
    auto res = session.sweep(req);
    if (!res.ok())
        throw std::runtime_error("sweep: " + res.status().toString());
    return res.take();
}

/**
 * Golden checks of one canonical-input sweep cell: the schedule
 * block (per-loop digests plus cycles) for base/ibc/ipbc under
 * selective unrolling, and the simulation block for ipbc. Cells the
 * goldens do not cover are skipped.
 */
void
checkAgainstGoldens(Checks &checks, api::Session &session,
                    const engine::ExperimentResult &r,
                    const ToolchainOptions &base, const Golden &schedGolden,
                    const Golden &simGolden)
{
    const std::string heur = schedulerName(r.spec);
    if (!isBuiltin(r.spec.bench) ||
        r.spec.opts.unroll != UnrollPolicy::Selective ||
        (heur != "base" && heur != "ibc" && heur != "ipbc"))
        return;
    if (r.failed()) {
        checks.expect(false, r.spec.label() + ": " + r.error);
        return;
    }
    const std::string prefix =
        r.spec.bench + " " + r.spec.arch.name + " " + heur;
    const auto compiled = compileOrThrow(session, compileRequest(r, base));
    std::vector<std::string> block;
    for (const CompiledLoopVersions &v : compiled->loops) {
        const CompiledLoop &loop = v.primary;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(
                          digestSchedule(loop.sched.schedule)));
        std::ostringstream os;
        os << prefix << ' ' << loop.name << " uf=" << loop.unrollFactor
           << " ii=" << loop.sched.schedule.ii
           << " sc=" << loop.sched.schedule.stageCount
           << " copies=" << loop.sched.schedule.numCopies()
           << " sched=" << digest;
        block.push_back(os.str());
    }
    block.push_back(prefix + " cycles=" +
                    std::to_string(r.run().total.totalCycles));
    checkGoldenBlock(checks, schedGolden, prefix, block,
                     "schedule golden");

    if (heur != "ipbc")
        return;
    const std::string simPrefix = r.spec.bench + " " + r.spec.arch.name;
    std::vector<std::string> simBlock;
    for (const LoopRun &lr : r.run().loops)
        simBlock.push_back(simPrefix + " " + lr.name + " " +
                           renderStats(lr.sim));
    simBlock.push_back(simPrefix + " total " + renderStats(r.run().total));
    checkGoldenBlock(checks, simGolden, simPrefix, simBlock, "sim golden");
}

Golden
scheduleGolden(const Options &opts)
{
    return loadGoldenBlocks(
        opts.sourceRoot + "/tests/golden/schedule_equivalence.txt", 3);
}

Golden
simGolden(const Options &opts)
{
    return loadGoldenBlocks(
        opts.sourceRoot + "/tests/golden/sim_equivalence.txt", 2);
}

/** Simulated cycles of every cell at dataset 0. */
double
cyclesAtDataset0(const api::SweepResult &res)
{
    double sum = 0.0;
    for (const engine::ExperimentResult &r : res.experiments)
        sum += r.failed() ? 0.0 : double(r.run().total.totalCycles);
    return sum;
}

/** Simulated dynamic ops over every cell and data set. */
double
simulatedOps(const api::SweepResult &res)
{
    double sum = 0.0;
    for (const engine::ExperimentResult &r : res.experiments) {
        for (const BenchmarkRun &run : r.datasetRuns)
            sum += double(run.total.dynamicOps);
    }
    return sum;
}

/** Per-cell fingerprints of a sweep, in grid order. */
std::vector<std::string>
sweepFingerprints(const api::SweepResult &res)
{
    std::vector<std::string> out;
    for (const engine::ExperimentResult &r : res.experiments)
        out.push_back(r.failed() ? "failed: " + r.error
                                 : fingerprint(r.datasetRuns));
    return out;
}

/** Compare every cell of an iteration with the reference iteration. */
void
checkAgainstReference(Checks &checks, const std::vector<std::string> &ref,
                      const std::vector<std::string> &got,
                      const std::string &what)
{
    if (ref.size() != got.size()) {
        checks.expect(false, what + ": cell count changed");
        return;
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
        checks.expect(ref[i] == got[i],
                      what + " cell " + std::to_string(i) +
                          " differs from the first iteration");
}

/** Bucket counts of every registry histogram in @p snap. */
HistogramBuckets
histograms(const metrics::Snapshot &snap)
{
    HistogramBuckets out;
    for (const auto &h : snap.histograms)
        out[h.name].assign(h.buckets.begin(), h.buckets.end());
    return out;
}

void
addCacheMetrics(Report &report, const engine::CompileCacheStats &before,
                const engine::CompileCacheStats &after)
{
    const double hits = double(after.hits - before.hits);
    const double misses = double(after.misses - before.misses);
    report.add("engine.cache_hits", hits, "count");
    report.add("engine.cache_misses", misses, "count");
    report.add("engine.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "fraction");
}

// ---- the traced pass ------------------------------------------------------

/** Counts the traced pass gathers at the layer boundaries. */
struct LayerCounts
{
    double ddgNodes = 0;
    double circuits = 0;
    double loopsScheduled = 0;
    double iiAttempts = 0;
    double schedAllocs = 0;
    double solverNodes = 0;
    double proven = 0;
    double exhausted = 0;
    double simOps = 0;
    double simRuns = 0;
    double simAllocs = 0;
    double langBytes = 0;
    /** Cache family -> summed SimStats of every traced run. */
    std::map<std::string, SimStats> mem;
};

const char *
cacheFamily(const MachineConfig &cfg)
{
    switch (cfg.cacheOrg) {
      case CacheOrg::Interleaved:
        return "interleaved";
      case CacheOrg::Unified:
        return "unified";
      case CacheOrg::MultiVliw:
        return "multivliw";
    }
    return "unknown";
}

LatencyScheme
latencySchemeFor(const MachineConfig &cfg)
{
    switch (cfg.cacheOrg) {
      case CacheOrg::Interleaved:
        return LatencyScheme::fourClass(cfg);
      case CacheOrg::Unified:
        return LatencyScheme::twoClassUnified(cfg);
      case CacheOrg::MultiVliw:
        return LatencyScheme::twoClassCoherent(cfg);
    }
    throw std::runtime_error("unknown cache organisation");
}

/** Artifact bytes of a one-loop benchmark (the equality oracle). */
std::string
encodeLoop(const CompiledLoop &loop)
{
    CompiledBenchmark b;
    b.name = "replay";
    b.loops.push_back(CompiledLoopVersions{loop, std::nullopt, std::nullopt});
    return dist::encodeArtifact(b, "");
}

/**
 * The traced replay of one cell. Every compile stage gets the
 * artifact's stored inputs and must reproduce its stored output;
 * then the cell's schedules are decoded and simulated again and
 * must reproduce the sweep's result. The comparisons are the
 * benchmark's own work, so the traced window is paused for them.
 */
class CellReplay
{
  public:
    CellReplay(Tracer &tracer, Checks &checks, LayerCounts &counts)
        : tracer_(tracer), checks_(checks), counts_(counts)
    {
    }

    void
    compileStages(int cell, const engine::ExperimentSpec &spec,
                  const CompiledBenchmark &artifact)
    {
        for (std::size_t li = 0; li < artifact.loops.size(); ++li)
            replayLoop(cell, spec, spec.workload->loops[li],
                       artifact.loops[li].primary);
    }

    void
    simulate(int cell, const engine::ExperimentResult &r,
             const CompiledBenchmark &artifact)
    {
        const engine::ExperimentSpec &spec = r.spec;
        {
            SimWorkspace ws;
            for (const CompiledLoopVersions &v : artifact.loops) {
                Tracer::Scope s(tracer_, "sim.prepare", cell);
                ws.prepare(v.primary.ddg, v.primary.sched.schedule,
                           v.primary.latency.latencies);
            }
        }
        std::vector<std::uint64_t> seeds = spec.execSeeds;
        if (seeds.empty())
            seeds.push_back(spec.opts.execSeed);
        const Toolchain chain(spec.arch.config, spec.opts);
        std::vector<BenchmarkRun> runs;
        const std::uint64_t allocs0 = threadAllocations();
        {
            Tracer::Scope s(tracer_, "sim.simulate", cell);
            if (seeds.size() == 1)
                runs.push_back(
                    chain.simulateBenchmark(*spec.workload, artifact));
            else
                runs = chain.simulateBatch(*spec.workload, artifact, seeds);
        }
        counts_.simAllocs += double(threadAllocations() - allocs0);
        counts_.simRuns += 1;

        tracer_.stopWindow();
        for (const BenchmarkRun &run : runs) {
            counts_.simOps += double(run.total.dynamicOps);
            counts_.mem[cacheFamily(spec.arch.config)].merge(run.total);
        }
        checks_.expect(fingerprint(runs) == fingerprint(r.datasetRuns),
                       r.spec.label() +
                           ": traced simulation differs from the sweep");
        tracer_.startWindow();
    }

  private:
    /** The replayed stage outputs of one loop. */
    struct Replayed
    {
        Ddg ddg;
        ProfileMap profile;
        LatencyAssignment latency;
        int mii = 0;
        std::optional<ScheduleOutcome> sched;
        std::optional<opt::SolveOutcome> solved;
    };

    void
    replayLoop(int cell, const engine::ExperimentSpec &spec,
               const LoopSpec &loopSpec, const CompiledLoop &stored)
    {
        const MachineConfig &cfg = spec.arch.config;
        const ToolchainOptions &o = spec.opts;
        const BenchmarkSpec &bench = *spec.workload;
        SchedulerOptions so;
        so.heuristic = o.heuristic;
        so.useChains = o.memChains && cfg.cacheOrg != CacheOrg::Unified;
        so.maxIiTries = o.maxIiTries;

        Replayed out;
        {
            Tracer::Scope s(tracer_, "ddg.unroll", cell);
            out.ddg = unrollDdg(loopSpec.body, stored.unrollFactor);
        }
        DataSet ds;
        {
            Tracer::Scope s(tracer_, "workloads.dataset", cell);
            ds = makeDataSet(bench, cfg, o.profileSeed, o.varAlignment);
        }
        {
            Tracer::Scope s(tracer_, "workloads.profile", cell);
            AddressResolver addr(stored.ddg, bench, ds);
            out.profile = profileLoop(stored.ddg, addr,
                                      stored.kernelIterations,
                                      stored.invocations, cfg, o.profile);
        }
        std::vector<Circuit> circuits;
        {
            Tracer::Scope s(tracer_, "ddg.circuits", cell);
            circuits = findCircuits(stored.ddg);
        }
        const LatencyScheme scheme = latencySchemeFor(cfg);
        {
            Tracer::Scope s(tracer_, "sched.latency", cell);
            out.latency = assignLatencies(stored.ddg, circuits,
                                          stored.profile, scheme, cfg);
        }
        {
            Tracer::Scope s(tracer_, "ddg.mii", cell);
            out.mii = computeMii(stored.ddg, circuits,
                                 stored.latency.latencies, cfg);
        }
        const std::uint64_t allocs0 = threadAllocations();
        {
            Tracer::Scope s(tracer_, "sched.schedule", cell);
            out.sched = scheduleLoop(stored.ddg, circuits,
                                     stored.latency.latencies,
                                     stored.profile, cfg, stored.mii, so);
        }
        counts_.schedAllocs += double(threadAllocations() - allocs0);
        if (o.optimalSolver && out.sched) {
            Tracer::Scope s(tracer_, "opt.solve", cell);
            out.solved = opt::solveLoop(stored.ddg, stored.latency.latencies,
                                        cfg, so, o.solverBudget,
                                        out.sched->schedule, stored.mii);
        }

        tracer_.stopWindow();
        count(out, circuits.size());
        verify(spec, stored, so, std::move(out));
        tracer_.startWindow();
    }

    void
    count(const Replayed &out, std::size_t circuits)
    {
        counts_.ddgNodes += out.ddg.numNodes();
        counts_.circuits += double(circuits);
        counts_.loopsScheduled += 1;
        if (out.sched)
            counts_.iiAttempts += out.sched->attempts;
        if (out.solved) {
            counts_.solverNodes += double(out.solved->stats.nodes);
            counts_.proven += out.solved->status == opt::SolveStatus::Proven;
            counts_.exhausted +=
                out.solved->status == opt::SolveStatus::BudgetExhausted;
        }
    }

    /** Each stage's output, put in place of the stored one, must
     *  leave the artifact's encoding unchanged. */
    void
    verify(const engine::ExperimentSpec &spec, const CompiledLoop &stored,
           const SchedulerOptions &so, Replayed out)
    {
        const std::string where = spec.label() + "/" + stored.name;
        const std::string want = encodeLoop(stored);
        const auto expectStage = [&](const char *stage, auto &&replace) {
            CompiledLoop c = stored;
            replace(c);
            checks_.expect(encodeLoop(c) == want,
                           where + ": replayed " + stage +
                               " differs from the artifact");
        };
        expectStage("unrollDdg",
                    [&](CompiledLoop &c) { c.ddg = std::move(out.ddg); });
        expectStage("makeDataSet+profileLoop", [&](CompiledLoop &c) {
            c.profile = std::move(out.profile);
        });
        expectStage("findCircuits+assignLatencies", [&](CompiledLoop &c) {
            c.latency = std::move(out.latency);
        });
        checks_.expect(std::max(stored.latency.miiTarget, out.mii) ==
                           stored.mii,
                       where + ": replayed computeMii differs");
        if (!out.sched) {
            checks_.expect(false, where + ": replayed scheduleLoop failed");
            return;
        }
        if (!out.solved) {
            expectStage("scheduleLoop", [&](CompiledLoop &c) {
                c.sched = std::move(*out.sched);
            });
            return;
        }
        // The solver keeps the heuristic seed unless it found a
        // smaller II; chain clusters then follow its placement, as
        // Toolchain::compileAt records them.
        expectStage("scheduleLoop+solveLoop", [&](CompiledLoop &c) {
            const opt::SolveOutcome &solved = *out.solved;
            c.sched = std::move(*out.sched);
            if (solved.schedule.ii < c.sched.schedule.ii) {
                c.sched.schedule = solved.schedule;
                if (so.useChains) {
                    const MemChains chains(stored.ddg);
                    c.sched.chainClusters.assign(
                        std::size_t(chains.numChains()), -1);
                    for (int ch = 0; ch < chains.numChains(); ++ch)
                        c.sched.chainClusters[std::size_t(ch)] =
                            solved.schedule.clusterOf(
                                chains.members(ch).front());
                }
            }
            c.solverOutcome = opt::solveStatusName(solved.status);
            c.solverLowerBound = solved.lowerBound;
            c.solverNodes = solved.stats.nodes;
        });
        // MII <= proven lower bound <= II (the --gap-gate rule).
        checks_.expect(stored.mii <= stored.solverLowerBound &&
                           stored.solverLowerBound <= stored.sched.schedule.ii,
                       where + ": solver bound outside [MII, II]");
    }

    Tracer &tracer_;
    Checks &checks_;
    LayerCounts &counts_;
};

/** Traced registration of the example kernels into a fresh session. */
void
tracedRegistration(Tracer &tracer, Checks &checks, LayerCounts &counts,
                   const std::vector<KernelText> &kernels)
{
    std::unique_ptr<api::Session> session;
    {
        Tracer::Scope s(tracer, "api.session");
        session = std::make_unique<api::Session>();
    }
    for (const KernelText &k : kernels) {
        Tracer::Scope s(tracer, "lang.register");
        const auto res =
            session->registerWorkloadText("", k.text, "file", k.path);
        checks.expect(res.ok(), "register " + k.path);
        counts.langBytes += double(k.text.size());
    }
}

/** Traced report writing over one sweep result. */
void
tracedReport(Tracer &tracer, const api::SweepResult &res)
{
    Tracer::Scope s(tracer, "engine.report");
    std::ostringstream csv;
    std::ostringstream json;
    engine::writeCsv(csv, res.experiments);
    engine::writeJson(json, res.experiments, &res.cache);
}

/**
 * The traced pass over one sweep's cells: look the artifact up
 * through Session::compile (a cache hit), replay the compile
 * stages when @p replayCompile, then decode and simulate again.
 */
void
tracedCells(Tracer &tracer, Checks &checks, LayerCounts &counts,
            api::Session &session, const api::SweepResult &res,
            const ToolchainOptions &base, bool replayCompile)
{
    CellReplay replay(tracer, checks, counts);
    for (std::size_t i = 0; i < res.experiments.size(); ++i) {
        const engine::ExperimentResult &r = res.experiments[i];
        const int cell = int(i);
        Tracer::Scope cellSpan(tracer, "bench.cell", cell);
        std::shared_ptr<const CompiledBenchmark> artifact;
        {
            Tracer::Scope s(tracer, "engine.compile", cell);
            artifact = compileOrThrow(session, compileRequest(r, base));
        }
        if (replayCompile)
            replay.compileStages(cell, r.spec, *artifact);
        replay.simulate(cell, r, *artifact);
    }
}

/** Per-layer metrics from the traced pass (means per call, counts per pass). */
void
addLayerMetrics(Report &report, const std::vector<const Tracer *> &tracers,
                const LayerCounts &c, double passes)
{
    const auto calls = summarize(tracers);
    const auto mean = [&calls](const std::string &name) {
        const auto it = calls.find(name);
        return it == calls.end() ? 0.0 : it->second.meanUs();
    };
    const auto count = [&calls](const std::string &name) {
        const auto it = calls.find(name);
        return it == calls.end() ? 0.0 : double(it->second.calls);
    };
    const auto total = [&calls](const std::string &name) {
        const auto it = calls.find(name);
        return it == calls.end() ? 0.0 : it->second.totalUs;
    };
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    report.add("lang.register_us", mean("lang.register"), "us");
    report.add("lang.bytes", per(c.langBytes, count("lang.register")),
               "bytes");
    report.add("ddg.unroll_us", mean("ddg.unroll"), "us");
    report.add("ddg.nodes", per(c.ddgNodes, count("ddg.unroll")), "count");
    report.add("ddg.circuits_us", mean("ddg.circuits"), "us");
    report.add("ddg.circuits", per(c.circuits, count("ddg.circuits")),
               "count");
    report.add("ddg.mii_us", mean("ddg.mii"), "us");
    report.add("workloads.dataset_us", mean("workloads.dataset"), "us");
    report.add("workloads.profile_us", mean("workloads.profile"), "us");
    report.add("sched.latency_us", mean("sched.latency"), "us");
    report.add("sched.schedule_us", mean("sched.schedule"), "us");
    report.add("sched.ii_over_mii",
               per(c.iiAttempts - c.loopsScheduled, c.loopsScheduled),
               "attempts/loop");
    report.add("sched.useful_attempt_share",
               per(c.loopsScheduled, c.iiAttempts), "fraction");
    report.add("sched.allocs_per_schedule",
               per(c.schedAllocs, c.loopsScheduled), "allocs");
    report.add("opt.solve_us", mean("opt.solve"), "us");
    report.add("opt.nodes", per(c.solverNodes, passes), "count");
    report.add("opt.nodes_per_s",
               per(c.solverNodes, total("opt.solve") / 1e6), "1/s");
    report.add("opt.proven", per(c.proven, passes), "count");
    report.add("opt.budget_exhausted", per(c.exhausted, passes), "count");
    report.add("sim.prepare_us", mean("sim.prepare"), "us");
    report.add("sim.simulate_us", mean("sim.simulate"), "us");
    report.add("sim.ops", per(c.simOps, passes), "count");
    report.add("sim.ns_per_op",
               per(total("sim.simulate") * 1e3, c.simOps), "ns");
    report.add("sim.allocs_per_run", per(c.simAllocs, c.simRuns), "allocs");
    for (const char *family : {"interleaved", "unified", "multivliw"}) {
        const auto it = c.mem.find(family);
        const SimStats s = it == c.mem.end() ? SimStats{} : it->second;
        double accesses = 0;
        for (const Counter n : s.accessesByClass)
            accesses += double(n);
        const auto cls = [&s](AccessClass a) {
            return double(s.accessesByClass[std::size_t(a)]);
        };
        const std::string p = std::string("mem.") + family + ".";
        report.add(p + "accesses", per(accesses, passes), "count");
        report.add(p + "local_hit_share",
                   per(cls(AccessClass::LocalHit), accesses), "fraction");
        report.add(p + "remote_hit_share",
                   per(cls(AccessClass::RemoteHit), accesses), "fraction");
        report.add(p + "miss_share",
                   per(cls(AccessClass::LocalMiss) +
                           cls(AccessClass::RemoteMiss),
                       accesses),
                   "fraction");
        report.add(p + "ab_hit_share",
                   per(double(s.abHits), double(s.memAccesses)), "fraction");
        report.add(p + "stall_share",
                   per(double(s.stallCycles), double(s.totalCycles)),
                   "fraction");
    }
    report.add("engine.report_us", mean("engine.report"), "us");
}

/** Metrics of the serving layers, which in-process workloads never reach. */
void
addUnusedServeMetrics(Report &report)
{
    report.add("serve.rtt_us", 0.0, "us");
    report.add("serve.result_bytes", 0.0, "bytes");
    report.add("serve.events_per_job", 0.0, "count");
    report.add("json.parse_us", 0.0, "us");
}

// ---- the shared in-process run --------------------------------------------

/**
 * One in-process workload: how to set it up, run its measured
 * operation (one job), check it, and trace it.
 */
struct InProcess
{
    const char *name = "";
    /** Cells one operation completes. */
    double cellsPerOp = 0;
    /** Threads one operation computes on (its sweep's jobs). */
    int threads = 1;
    /** Tear down the previous set-up's state; not timed. */
    std::function<void()> reset;
    /** Build the state the operations need; timed as setup_s. */
    std::function<void()> setup;
    /** The measured operation; returns per-cell fingerprints. */
    std::function<std::vector<std::string>()> op;
    /** Simulated ops of one operation (all cells and data sets). */
    std::function<double()> opsPerOp;
    /** The canonical-input pass: golden checks; returns sim_cycles. */
    std::function<double(Checks &)> canonicalPass;
    /** Session whose registry histograms the window diffs. */
    std::function<const api::Session &()> metricsSession;
    /** Cache counters around one operation (before, after). */
    std::function<std::pair<engine::CompileCacheStats,
                            engine::CompileCacheStats>()>
        cacheAroundOp;
    /** One traced pass: runs untraced work first if it needs to. */
    std::function<void(Tracer &, Checks &, LayerCounts &)> tracedPass;
    std::vector<std::string> unmeasured;
};

/**
 * The median, over rounds of @p round consecutive values, of each
 * round's mean. A round visits every CPU once, so its mean does not
 * depend on how the CPUs' speeds split; a median of single values
 * would jump between the fast and the slow ones.
 */
double
medianRoundMean(const std::vector<double> &values, std::size_t round)
{
    std::vector<double> means;
    for (std::size_t i = 0; i + round <= values.size(); i += round) {
        double sum = 0;
        for (std::size_t k = i; k < i + round; ++k)
            sum += values[k];
        means.push_back(sum / double(round));
    }
    return median(means);
}

/** Time spent repeating the set-up after each measured operation. */
constexpr double kSetupSliceS = 0.05;

/**
 * Moves the calling thread, and the threads it creates from then on,
 * to the next CPUs of the process's allowed set on every turn. The
 * host's CPUs differ in speed by up to half from minute to minute
 * (other guests share their cores), and a busy thread rarely
 * migrates, so without turns a run would measure whichever CPU it
 * started on. Restores the allowed set on destruction.
 */
class CpuTurns
{
  public:
    CpuTurns()
    {
        CPU_ZERO(&allowed_);
        if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
        }
    }

    ~CpuTurns()
    {
        if (!cpus_.empty())
            ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }

    CpuTurns(const CpuTurns &) = delete;
    CpuTurns &operator=(const CpuTurns &) = delete;

    /** Turns after which every CPU had its share: one round. */
    std::size_t
    round() const
    {
        return std::max<std::size_t>(1, cpus_.size());
    }

    /** Pin to @p count CPUs, starting one further than last time. */
    void
    next(int count)
    {
        if (cpus_.empty() || std::size_t(count) >= cpus_.size())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int k = 0; k < count; ++k)
            CPU_SET(cpus_[(turn_ + std::size_t(k)) % cpus_.size()], &set);
        ++turn_;
        ::sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

Report
runInProcess(const Options &opts, InProcess &w)
{
    Report report;
    // One set-up builds the state; more are timed after each
    // measured operation, on its CPUs, so they meet the same host
    // conditions.
    std::vector<double> setupTimes;
    timeSetups(setupTimes, 0.0, w.reset, w.setup);
    std::vector<double> setupPerTurn;
    const double simCycles = w.canonicalPass(report.checks);

    // The first operation is the reference every later one must match.
    const std::vector<std::string> reference = w.op();
    report.checks.passed(reference.size());
    const double opsPerOp = w.opsPerOp();

    const double window =
        opts.quick ? 0.0 : (opts.trace ? opts.seconds / 2 : opts.seconds);
    const HistogramBuckets apiBefore =
        histograms(w.metricsSession().metricsSnapshot());
    std::vector<double> times;
    std::size_t round = 1;
    const auto start = Clock::now();
    report.addInfo("first_op_after_s",
                   std::chrono::duration<double>(start - opts.started)
                       .count(),
                   "s");
    {
        CpuTurns turns;
        round = turns.round();
        while (times.size() < 3 || secondsSince(start) < window ||
               times.size() % round != 0) {
            turns.next(w.threads);
            const auto t0 = Clock::now();
            const std::vector<std::string> got = w.op();
            times.push_back(secondsSince(t0));
            checkAgainstReference(report.checks, reference, got, w.name);
            std::vector<double> turnSetups;
            timeSetups(turnSetups, kSetupSliceS, w.reset, w.setup);
            setupPerTurn.push_back(median(turnSetups));
            setupTimes.insert(setupTimes.end(), turnSetups.begin(),
                              turnSetups.end());
        }
    }
    const double medianS = medianRoundMean(times, round);
    const HistogramBuckets apiAfter =
        histograms(w.metricsSession().metricsSnapshot());

    if (!opts.trace) {
        report.add("setup_s", medianRoundMean(setupPerTurn, round), "s");
        report.add("cells_per_s", w.cellsPerOp / medianS, "cells/s");
        report.add("jobs_per_s", 1.0 / medianS, "jobs/s");
        report.add("job_p50_ms", medianS * 1e3, "ms");
        report.add("sim_mops_per_s", opsPerOp / medianS / 1e6, "Mops/s");
        report.add("sim_cycles", simCycles, "cycles");
        report.add("peak_rss_mb", peakRssMb(), "MiB");
        report.addInfo("jobs", double(times.size()), "count");
        report.addInfo("setups", double(setupTimes.size()), "count");
        report.addInfo("cells_per_job", w.cellsPerOp, "cells");
        report.addInfo("job_p25_ms", quantile(times, 0.25) * 1e3, "ms");
        report.addInfo("job_p75_ms", quantile(times, 0.75) * 1e3, "ms");
        return report;
    }

    // Each traced pass is paired with the same pass on a tracer that
    // records nothing; their window times give trace_overhead.
    Tracer tracer;
    Tracer quiet(0, false);
    LayerCounts counts, quietCounts;
    int passes = 0;
    const auto traceStart = Clock::now();
    do {
        w.tracedPass(quiet, report.checks, quietCounts);
        w.tracedPass(tracer, report.checks, counts);
        ++passes;
    } while (!opts.quick && secondsSince(traceStart) < opts.seconds / 2);

    const std::vector<const Tracer *> tracers = {&tracer};
    addLayerMetrics(report, tracers, counts, passes);
    const auto [cacheBefore, cacheAfter] = w.cacheAroundOp();
    addCacheMetrics(report, cacheBefore, cacheAfter);
    addApiMetrics(report, apiBefore, apiAfter);
    addUnusedServeMetrics(report);
    addShareMetrics(report, layerShares(tracers), tracer.windowSeconds());
    report.add("trace_overhead",
               tracer.windowSeconds() / quiet.windowSeconds(), "ratio");
    report.addInfo("traced_passes", passes, "count");
    report.unmeasured = w.unmeasured;
    const std::string path =
        opts.outDir + "/trace_" + w.name + ".json";
    report.checks.expect(writeChromeTrace(path, tracers),
                         "cannot write " + path);
    return report;
}

const char *const kUnmeasuredCandidates =
    "selective unrolling: the rejected candidate factors are compiled "
    "but not stored, so only the chosen factor is replayed";
const char *const kUnmeasuredOufProfile =
    "profileLoop on the un-unrolled body (feeds computeOuf): its output "
    "is not stored";

} // namespace

void
addUnusedInProcessLayerMetrics(Report &report)
{
    addLayerMetrics(report, {}, LayerCounts{}, 1);
}

// ---- dse_sweep --------------------------------------------------------------
// Why: the researcher's design-space sweep. Compile (ddg, workloads
// profiler, sched) and sim each take about half the time, and every
// iteration starts from a fresh session, so the compile cache serves
// misses and inserts.

Report
runDseSweep(const Options &opts)
{
    const std::vector<KernelText> kernels =
        loadExampleKernels(opts.sourceRoot);
    const Golden schedG = scheduleGolden(opts);
    const Golden simG = simGolden(opts);

    api::SweepRequest req;
    req.workloads = mediabenchNames();
    for (const KernelText &k : kernels)
        req.workloads.push_back(k.name);
    req.archs = allArchs();
    req.schedulers = {"base", "ibc", "ipbc"};
    req.unrolls = {"none", "selective"};
    req.datasets = 1;
    req.jobs = 2;
    req.options.execSeed = execSeedFor(opts.seed);

    std::unique_ptr<api::Session> session;
    api::SweepResult last;
    const auto freshSession = [&] {
        session = std::make_unique<api::Session>(api::SessionOptions{});
        for (const KernelText &k : kernels) {
            auto res =
                session->registerWorkloadText("", k.text, "file", k.path);
            if (!res.ok())
                throw std::runtime_error("register " + k.path + ": " +
                                         res.status().toString());
        }
    };
    engine::CompileCacheStats cacheAfterOp;

    InProcess w;
    w.name = "dse_sweep";
    w.cellsPerOp = double(req.workloads.size() * req.archs.size() *
                          req.schedulers.size() * req.unrolls.size());
    w.threads = req.jobs;
    w.reset = [&] { session.reset(); };
    w.setup = freshSession;
    w.op = [&] {
        freshSession();
        last = sweepOrThrow(*session, req);
        cacheAfterOp = session->cacheStats();
        return sweepFingerprints(last);
    };
    w.opsPerOp = [&] { return simulatedOps(last); };
    w.canonicalPass = [&](Checks &checks) {
        freshSession();
        api::SweepRequest canon = req;
        canon.options = ToolchainOptions{};
        const api::SweepResult res = sweepOrThrow(*session, canon);
        for (const engine::ExperimentResult &r : res.experiments)
            checkAgainstGoldens(checks, *session, r, canon.options, schedG,
                                simG);
        return cyclesAtDataset0(res);
    };
    w.metricsSession = [&]() -> const api::Session & { return *session; };
    w.cacheAroundOp = [&] {
        return std::make_pair(engine::CompileCacheStats{}, cacheAfterOp);
    };
    w.tracedPass = [&](Tracer &tracer, Checks &checks, LayerCounts &counts) {
        w.op();
        tracer.startWindow();
        tracedRegistration(tracer, checks, counts, kernels);
        tracedCells(tracer, checks, counts, *session, last, req.options,
                    true);
        tracedReport(tracer, last);
        tracer.stopWindow();
    };
    w.unmeasured = {kUnmeasuredCandidates, kUnmeasuredOufProfile};
    return runInProcess(opts, w);
}

// ---- sim_batch -------------------------------------------------------------
// Why: every compile is a cache hit, and sim plus mem take almost all
// of the time. This is the batched multi-dataset path, which
// dse_sweep does not use; a lane-batching gain that costs
// single-dataset runs shows up there.

Report
runSimBatch(const Options &opts)
{
    const Golden schedG = scheduleGolden(opts);
    const Golden simG = simGolden(opts);

    api::SweepRequest req;
    req.workloads = mediabenchNames();
    req.archs = {"interleaved-ab", "unified1", "multivliw"};
    req.datasets = 16;
    req.jobs = 1;
    req.options.execSeed = execSeedFor(opts.seed);

    std::unique_ptr<api::Session> session;
    api::SweepResult last;
    engine::CompileCacheStats cacheBefore, cacheAfter;

    InProcess w;
    w.name = "sim_batch";
    w.cellsPerOp = double(req.workloads.size() * req.archs.size());
    w.reset = [&] { session.reset(); };
    w.setup = [&] {
        session = std::make_unique<api::Session>(api::SessionOptions{});
        for (const std::string &bench : req.workloads) {
            for (const std::string &arch : req.archs) {
                api::RunRequest run;
                run.workload = bench;
                run.arch = arch;
                run.options = req.options;
                compileOrThrow(*session, run);
            }
        }
    };
    w.op = [&] {
        cacheBefore = session->cacheStats();
        last = sweepOrThrow(*session, req);
        cacheAfter = session->cacheStats();
        return sweepFingerprints(last);
    };
    w.opsPerOp = [&] { return simulatedOps(last); };
    w.canonicalPass = [&](Checks &checks) {
        api::SweepRequest canon = req;
        canon.options = ToolchainOptions{};
        canon.datasets = 1;
        const api::SweepResult res = sweepOrThrow(*session, canon);
        for (const engine::ExperimentResult &r : res.experiments)
            checkAgainstGoldens(checks, *session, r, canon.options, schedG,
                                simG);
        return cyclesAtDataset0(res);
    };
    w.metricsSession = [&]() -> const api::Session & { return *session; };
    w.cacheAroundOp = [&] { return std::make_pair(cacheBefore, cacheAfter); };
    w.tracedPass = [&](Tracer &tracer, Checks &checks, LayerCounts &counts) {
        tracer.startWindow();
        tracedCells(tracer, checks, counts, *session, last, req.options,
                    false);
        tracedReport(tracer, last);
        tracer.stopWindow();
    };
    return runInProcess(opts, w);
}

// ---- gap_report ------------------------------------------------------------
// Why: the exact solver takes about two thirds of the time, and no
// other workload runs it. Each report starts from a fresh session so
// every solver cell is solved again.

Report
runGapReport(const Options &opts)
{
    opt::GapReportOptions gap;
    gap.benches = mediabenchNames();
    gap.jobs = 1;
    gap.options.execSeed = execSeedFor(opts.seed);
    std::vector<std::string> schedulers = gap.heuristics;
    schedulers.push_back(gap.optimalKey);

    std::unique_ptr<api::Session> session;
    opt::GapReport last;
    engine::CompileCacheStats cacheAfterOp;
    double opsPerOp = 0;
    double provenShare = 0;

    const auto gridRequest = [&](const ToolchainOptions &options) {
        api::SweepRequest req;
        req.workloads = gap.benches;
        req.archs = gap.archs;
        req.schedulers = schedulers;
        // runGapReport compiles un-unrolled loops.
        req.unrolls = {"none"};
        req.jobs = 1;
        req.options = options;
        return req;
    };
    const auto runReport = [&](const opt::GapReportOptions &g) {
        session = std::make_unique<api::Session>(api::SessionOptions{});
        auto res = opt::runGapReport(*session, g);
        if (!res.ok())
            throw std::runtime_error("gap report: " +
                                     res.status().toString());
        return res.take();
    };
    const auto cellFingerprints = [](const opt::GapReport &report) {
        std::vector<std::string> out;
        for (const opt::GapCell &c : report.cells) {
            std::ostringstream os;
            os << c.bench << ' ' << c.arch << ' ' << c.scheduler
               << " ii=" << c.ii << '/' << c.iiOptimal
               << " cycles=" << c.cycles << '/' << c.cyclesOptimal
               << " solver=" << c.solver << " lb=" << c.lowerBound
               << " nodes=" << c.solverNodes;
            out.push_back(os.str());
        }
        return out;
    };

    InProcess w;
    w.name = "gap_report";
    w.cellsPerOp = double(gap.benches.size() * gap.archs.size() *
                          schedulers.size());
    w.reset = [&] { session.reset(); };
    w.setup = [&] {
        session = std::make_unique<api::Session>(api::SessionOptions{});
    };
    w.op = [&] {
        last = runReport(gap);
        cacheAfterOp = session->cacheStats();
        std::vector<std::string> out = cellFingerprints(last);
        out.push_back(last.gatePasses() ? "gate passes" : "gate fails");
        return out;
    };
    w.opsPerOp = [&] {
        if (opsPerOp == 0) {
            // The report does not carry op counts; the same grid on
            // the warm session re-simulates it from cached compiles.
            opsPerOp = simulatedOps(
                sweepOrThrow(*session, gridRequest(gap.options)));
        }
        return opsPerOp;
    };
    w.canonicalPass = [&](Checks &checks) {
        opt::GapReportOptions canon = gap;
        canon.options = ToolchainOptions{};
        const opt::GapReport report = runReport(canon);
        checks.expect(report.gatePasses(), "gap gate fails");
        std::set<std::string> solverCells;
        double cycles = 0;
        double proven = 0;
        for (const opt::GapCell &c : report.cells) {
            // --gap-gate: no heuristic II below a proven II.
            checks.expect(c.solver != "proven" || c.ii >= c.iiOptimal,
                          c.bench + " " + c.arch + " " + c.scheduler +
                              ": heuristic II below the proven II");
            checks.expect(c.lowerBound <= c.iiOptimal,
                          c.bench + " " + c.arch +
                              ": solver lower bound above its II");
            cycles += double(c.cycles);
            if (solverCells.insert(c.bench + " " + c.arch).second) {
                cycles += double(c.cyclesOptimal);
                proven += c.solver == "proven";
            }
        }
        provenShare = proven / double(solverCells.size());
        // MII <= proven lower bound <= II on every solver kernel.
        for (const std::string &cell : solverCells) {
            api::RunRequest run;
            run.workload = cell.substr(0, cell.find(' '));
            run.arch = cell.substr(cell.find(' ') + 1);
            run.scheduler = gap.optimalKey;
            run.unroll = "none";
            run.options = canon.options;
            const auto art = compileOrThrow(*session, run);
            for (const CompiledLoopVersions &v : art->loops) {
                const CompiledLoop &l = v.primary;
                checks.expect(l.mii <= l.solverLowerBound &&
                                  l.solverLowerBound <= l.sched.schedule.ii,
                              cell + "/" + l.name +
                                  ": solver bound outside [MII, II]");
            }
        }
        return cycles;
    };
    w.metricsSession = [&]() -> const api::Session & { return *session; };
    w.cacheAroundOp = [&] {
        return std::make_pair(engine::CompileCacheStats{}, cacheAfterOp);
    };
    w.tracedPass = [&](Tracer &tracer, Checks &checks, LayerCounts &counts) {
        w.op();
        const api::SweepResult grid =
            sweepOrThrow(*session, gridRequest(gap.options));
        tracer.startWindow();
        tracedCells(tracer, checks, counts, *session, grid, gap.options,
                    true);
        {
            Tracer::Scope s(tracer, "engine.report");
            std::ostringstream csv;
            std::ostringstream json;
            opt::writeGapCsv(csv, last);
            opt::writeGapJson(json, last);
        }
        tracer.stopWindow();
    };
    w.unmeasured = {kUnmeasuredOufProfile};
    Report report = runInProcess(opts, w);
    report.addInfo("proven_share", provenShare, "fraction");
    return report;
}

} // namespace perfbench
