#include "session.hh"

#include <cstdio>
#include <mutex>
#include <shared_mutex>

#include "api/executor.hh"
#include "dist/compile_store.hh"
#include "lang/diag.hh"
#include "lang/lower.hh"
#include "lang/writer.hh"
#include "workloads/dataset.hh"

namespace vliw::api {

Status
validateOptions(const ToolchainOptions &opts)
{
    if (opts.abHintBudget < 0) {
        return Status::invalidArgument(
            "abHintBudget must be >= 0, got " +
            std::to_string(opts.abHintBudget));
    }
    if (opts.maxIiTries < 1) {
        return Status::invalidArgument(
            "maxIiTries must be >= 1, got " +
            std::to_string(opts.maxIiTries));
    }
    if (opts.profile.maxIterations < 0) {
        return Status::invalidArgument(
            "profile.maxIterations must be >= 0, got " +
            std::to_string(opts.profile.maxIterations));
    }
    return Status();
}

namespace {

Status
validateDatasets(int datasets)
{
    if (datasets < 1) {
        return Status::invalidArgument(
            "datasets must be >= 1, got " +
            std::to_string(datasets));
    }
    return Status();
}

} // namespace

std::size_t
SweepResult::failedCount() const
{
    std::size_t failed = 0;
    for (const engine::ExperimentResult &r : experiments)
        failed += r.failed() ? 1 : 0;
    return failed;
}

std::size_t
SweepResult::completedCount() const
{
    return experiments.size() - failedCount();
}

Status
SweepResult::firstError() const
{
    for (const engine::ExperimentResult &r : experiments) {
        if (r.failed())
            return detail::cellStatus(r);
    }
    return Status();
}

struct Session::Impl
{
    SessionOptions opts;
    /**
     * Guards `registries` between threads: exclusive for every
     * register* call, shared for request resolution and listings.
     */
    mutable std::shared_mutex registryMutex;
    Registries registries = Registries::builtin();
    engine::CompileCache cache;
    /** After cache: the executor's pool drains cells that still
     *  reference it. */
    detail::AsyncExecutor executor;

    explicit Impl(const SessionOptions &o)
        : opts(o), cache(o.cacheCapacity, makeStore(o)),
          executor(o.compileCache ? &cache : nullptr, o.jobs,
                   detail::AdmissionLimits{o.maxQueuedCells,
                                           o.maxQueuedJobs})
    {
        if (!o.builtinWorkloads)
            registries.workloads = WorkloadRegistry();
    }

    static std::shared_ptr<engine::PersistentCompileStore>
    makeStore(const SessionOptions &o)
    {
        if (o.storeDir.empty() || !o.compileCache)
            return nullptr;
        auto store = std::make_shared<dist::CompileStore>(o.storeDir);
        if (!store->status().ok()) {
            // Degrade, don't die: a bad --store path costs the
            // acceleration, never the sweep.
            std::fprintf(stderr, "wivliw: compile store disabled: %s\n",
                         store->status().message().c_str());
            return nullptr;
        }
        return store;
    }

    /** Resolve a RunRequest into an engine spec, or fail. */
    Result<engine::ExperimentSpec>
    resolve(const RunRequest &req) const
    {
        if (Status s = validateOptions(req.options); !s.ok())
            return s;
        if (Status s = validateDatasets(req.datasets); !s.ok())
            return s;

        std::shared_lock lock(registryMutex);
        auto arch = registries.archs.resolve(req.arch);
        if (!arch.ok())
            return arch.status();
        auto heuristic = registries.schedulers.resolve(req.scheduler);
        if (!heuristic.ok())
            return heuristic.status();
        auto unroll = registries.unrolls.resolve(req.unroll);
        if (!unroll.ok())
            return unroll.status();
        auto workload = registries.workloads.resolve(req.workload);
        if (!workload.ok())
            return workload.status();

        engine::ExperimentSpec spec;
        spec.bench = req.workload;
        spec.arch = {req.arch, arch.take()};
        spec.opts = req.options;
        spec.opts.heuristic = heuristic.value().heuristic;
        spec.opts.optimalSolver = heuristic.value().optimal;
        spec.opts.solverBudget = heuristic.value().budget;
        spec.opts.unroll = unroll.value();
        spec.workload = workload.take();
        if (req.datasets > 1) {
            spec.execSeeds.reserve(std::size_t(req.datasets));
            for (int d = 0; d < req.datasets; ++d) {
                spec.execSeeds.push_back(
                    datasetSeed(spec.opts.execSeed, d));
            }
        }
        return spec;
    }

    /**
     * Validate every axis of a SweepRequest atomically and expand
     * it to grid-ordered specs, or fail with the offending axis's
     * Status before any work runs.
     */
    Result<std::vector<engine::ExperimentSpec>>
    resolveSweep(const SweepRequest &req) const
    {
        if (Status s = validateOptions(req.options); !s.ok())
            return s;
        if (Status s = validateDatasets(req.datasets); !s.ok())
            return s;
        if (req.jobs < 0) {
            return Status::invalidArgument(
                "jobs must be >= 0, got " + std::to_string(req.jobs));
        }
        if (req.schedulers.empty() || req.unrolls.empty() ||
            req.alignment.empty() || req.chains.empty() ||
            req.versioning.empty()) {
            return Status::invalidArgument(
                "every sweep axis needs at least one entry");
        }

        std::shared_lock lock(registryMutex);
        const Registries &reg = registries;
        for (const std::string &name : req.workloads) {
            if (!reg.workloads.contains(name))
                return reg.workloads.unknown(name);
        }
        for (const std::string &name : req.archs) {
            if (auto r = reg.archs.resolve(name); !r.ok())
                return r.status();
        }
        for (const std::string &name : req.schedulers) {
            // resolve(), not contains(): parametric budget keys
            // (`optimal:b5000ms`) must validate here too, so a bad
            // grammar fails the sweep up front with context.
            if (auto r = reg.schedulers.resolve(name); !r.ok())
                return r.status();
        }
        for (const std::string &name : req.unrolls) {
            if (!reg.unrolls.contains(name))
                return reg.unrolls.unknown(name);
        }

        engine::ExperimentGrid grid;
        grid.benches = req.workloads;
        grid.archs = req.archs;
        grid.heuristics = req.schedulers;
        grid.unrolls = req.unrolls;
        grid.alignment = req.alignment;
        grid.chains = req.chains;
        grid.versioning = req.versioning;
        grid.datasets = req.datasets;
        grid.base = req.options;
        grid.registries = &reg;
        return grid.expand();
    }
};

Session::Session(const SessionOptions &opts)
    : impl_(std::make_unique<Impl>(opts))
{
}

Session::~Session() = default;
Session::Session(Session &&) noexcept = default;
Session &Session::operator=(Session &&) noexcept = default;

Registries &
Session::registries()
{
    return impl_->registries;
}

const Registries &
Session::registries() const
{
    return impl_->registries;
}

namespace {

/** Ingestion counters, shared by every front door (CLI, library,
 *  daemon) because they all funnel through the Session calls. */
struct IngestMetrics
{
    metrics::Counter &registered;
    metrics::Counter &parseErrors;
};

IngestMetrics &
ingestMetrics()
{
    static IngestMetrics m{
        metrics::registry().counter(
            "wivliw_workloads_registered_total"),
        metrics::registry().counter(
            "wivliw_workload_parse_errors_total")};
    return m;
}

} // namespace

Result<std::vector<std::string>>
Session::registerWorkloadText(const std::string &name,
                              const std::string &source,
                              const std::string &origin,
                              const std::string &label)
{
    std::vector<BenchmarkSpec> specs;
    if (auto diag = lang::compileWvl(source, specs)) {
        ingestMetrics().parseErrors.add();
        return Status::invalidArgument(
            lang::renderDiag(*diag, source, label),
            std::to_string(diag->pos.line) + ":" +
                std::to_string(diag->pos.col));
    }

    std::vector<BenchmarkSpec *> chosen;
    if (name.empty()) {
        for (BenchmarkSpec &spec : specs)
            chosen.push_back(&spec);
    } else if (specs.size() == 1) {
        if (specs[0].name != name) {
            specs[0].name = name;
            specs[0].fingerprint = lang::wvlFingerprint(specs[0]);
        }
        chosen.push_back(&specs[0]);
    } else {
        for (BenchmarkSpec &spec : specs) {
            if (spec.name == name) {
                chosen.push_back(&spec);
                break;
            }
        }
        if (chosen.empty())
            return Status::invalidArgument(
                "source defines " +
                    std::to_string(specs.size()) +
                    " benchmarks but none is named '" + name +
                    "'");
    }

    // All-or-nothing: check every name before touching the
    // registry, so a mid-list collision cannot half-register. The
    // check and the adds share one exclusive section, so a
    // concurrent registration cannot slip in between.
    std::unique_lock lock(impl_->registryMutex);
    WorkloadRegistry &workloads = impl_->registries.workloads;
    std::vector<BenchmarkSpec *> fresh;
    for (BenchmarkSpec *spec : chosen) {
        const WorkloadEntry *existing = workloads.find(spec->name);
        if (!existing) {
            fresh.push_back(spec);
            continue;
        }
        // Same name, same content: idempotent (a client pushing
        // its kernel to a long-lived daemon twice is fine).
        if (existing->spec &&
            existing->spec->fingerprint == spec->fingerprint)
            continue;
        return Status::error(
            StatusCode::AlreadyExists,
            "benchmark '" + spec->name +
                "' is already registered with different "
                "content",
            existing->origin);
    }
    std::vector<std::string> registered;
    for (BenchmarkSpec *spec : fresh) {
        const std::string benchName = spec->name;
        const Status st =
            workloads.add(benchName, std::move(*spec),
                          "ingested workload (.wvl)", origin);
        if (!st.ok())
            return st; // unreachable after the pre-check
        registered.push_back(benchName);
    }
    ingestMetrics().registered.add(registered.size());
    return registered;
}

Result<std::string>
Session::dumpWorkloadText(const std::string &workload) const
{
    std::shared_lock lock(impl_->registryMutex);
    auto spec = impl_->registries.workloads.resolve(workload);
    lock.unlock();
    if (!spec.ok())
        return spec.status();
    return lang::dumpWorkloadText(*spec.value());
}

Result<MachineConfig>
Session::resolveArch(const std::string &key) const
{
    std::shared_lock lock(impl_->registryMutex);
    return impl_->registries.archs.resolve(key);
}

std::vector<std::string>
Session::registeredNames(RegistryAxis axis) const
{
    std::shared_lock lock(impl_->registryMutex);
    const Registries &reg = impl_->registries;
    switch (axis) {
      case RegistryAxis::Archs:      return reg.archs.names();
      case RegistryAxis::Schedulers: return reg.schedulers.names();
      case RegistryAxis::Unrolls:    return reg.unrolls.names();
      case RegistryAxis::Workloads:  break;
    }
    return reg.workloads.names();
}

Result<std::shared_ptr<const CompiledBenchmark>>
Session::compile(const RunRequest &req)
{
    auto spec = impl_->resolve(req);
    if (!spec.ok())
        return spec.status();

    try {
        if (impl_->opts.compileCache) {
            return impl_->cache.compile(
                spec.value().arch.config, spec.value().opts,
                *spec.value().workload);
        }
        const Toolchain chain(spec.value().arch.config,
                              spec.value().opts);
        return std::shared_ptr<const CompiledBenchmark>(
            std::make_shared<const CompiledBenchmark>(
                chain.compileBenchmark(*spec.value().workload)));
    } catch (const CompileError &e) {
        return Status::error(StatusCode::FailedPrecondition,
                             e.what());
    } catch (const std::exception &e) {
        return Status::error(StatusCode::Internal, e.what());
    }
}

JobHandle<RunResult>
Session::submit(const RunRequest &req, const SubmitOptions &opts)
{
    auto spec = impl_->resolve(req);
    if (!spec.ok()) {
        return JobHandle<RunResult>(
            impl_->executor.submit({}, false, opts, spec.status()));
    }
    std::vector<engine::ExperimentSpec> specs;
    specs.push_back(spec.take());
    return JobHandle<RunResult>(
        impl_->executor.submit(std::move(specs), false, opts));
}

JobHandle<SweepResult>
Session::submit(const SweepRequest &req, const SubmitOptions &opts)
{
    // Validate before growing the shared pool: a rejected request
    // must not leave threads behind. Growth failure itself is not
    // a submission failure either — the job just runs on the pool
    // the session already has.
    auto specs = impl_->resolveSweep(req);
    if (!specs.ok()) {
        return JobHandle<SweepResult>(
            impl_->executor.submit({}, true, opts, specs.status()));
    }
    if (req.jobs > 0) {
        try {
            impl_->executor.ensureThreads(req.jobs);
        } catch (const std::exception &) {
        }
    }
    return JobHandle<SweepResult>(
        impl_->executor.submit(specs.take(), true, opts));
}

// The blocking calls are the async path with default submission
// options: a request rejected at submission comes back from take()
// as its Status, with no work started.
Result<RunResult>
Session::run(const RunRequest &req)
{
    return submit(req).take();
}

Result<SweepResult>
Session::sweep(const SweepRequest &req)
{
    return submit(req).take();
}

engine::CompileCacheStats
Session::cacheStats() const
{
    return impl_->cache.stats();
}

metrics::Snapshot
Session::metricsSnapshot() const
{
    return metrics::registry().snapshot();
}

std::string
Session::metricsText() const
{
    return metrics::renderPrometheus(metrics::registry().snapshot());
}

const SessionOptions &
Session::options() const
{
    return impl_->opts;
}

} // namespace vliw::api
