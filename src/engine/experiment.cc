#include "experiment.hh"

#include "support/logging.hh"
#include "workloads/dataset.hh"

namespace vliw::engine {

const std::vector<std::string> &
archNames()
{
    return api::builtinRegistries().archs.names();
}

ArchSpec
makeArch(const std::string &name)
{
    auto cfg = api::builtinRegistries().archs.resolve(name);
    if (!cfg.ok())
        vliw_panic("unknown architecture ", name);
    return ArchSpec{name, cfg.take()};
}

std::string
schedulerLabel(const ToolchainOptions &opts)
{
    if (opts.optimalSolver)
        return opt::canonicalBudgetKey(opts.solverBudget);
    return heuristicName(opts.heuristic);
}

std::string
ExperimentSpec::label() const
{
    std::string out = bench + "/" + arch.name + "/" +
        schedulerLabel(opts) + "/" +
        unrollPolicyName(opts.unroll);
    if (!opts.varAlignment)
        out += "/noalign";
    if (!opts.memChains)
        out += "/nochains";
    if (opts.loopVersioning)
        out += "/versioned";
    return out;
}

std::size_t
ExperimentGrid::size() const
{
    const api::Registries &reg =
        registries ? *registries : api::builtinRegistries();
    const std::size_t nb = benches.empty()
        ? reg.workloads.size() : benches.size();
    const std::size_t na =
        archs.empty() ? reg.archs.size() : archs.size();
    return nb * na * heuristics.size() * unrolls.size() *
        alignment.size() * chains.size() * versioning.size();
}

std::vector<ExperimentSpec>
ExperimentGrid::expand() const
{
    const api::Registries &reg =
        registries ? *registries : api::builtinRegistries();

    const std::vector<std::string> &bench_axis =
        benches.empty() ? reg.workloads.names() : benches;
    const std::vector<std::string> &arch_axis =
        archs.empty() ? reg.archs.names() : archs;

    // Resolve every axis through the registries up front; a name
    // that fails here is library misuse (the façade pre-validates).
    auto must = [](auto result, const char *axis) {
        if (!result.ok()) {
            vliw_panic("grid ", axis, " axis: ",
                       result.status().toString());
        }
        return result.take();
    };

    std::vector<ArchSpec> arch_specs;
    arch_specs.reserve(arch_axis.size());
    for (const std::string &name : arch_axis) {
        arch_specs.push_back(
            ArchSpec{name, must(reg.archs.resolve(name), "arch")});
    }
    std::vector<api::SchedulerChoice> heuristic_axis;
    heuristic_axis.reserve(heuristics.size());
    for (const std::string &name : heuristics) {
        heuristic_axis.push_back(
            must(reg.schedulers.resolve(name), "heuristic"));
    }
    std::vector<UnrollPolicy> unroll_axis;
    unroll_axis.reserve(unrolls.size());
    for (const std::string &name : unrolls) {
        unroll_axis.push_back(
            must(reg.unrolls.resolve(name), "unroll"));
    }
    std::vector<std::shared_ptr<const BenchmarkSpec>> workloads;
    workloads.reserve(bench_axis.size());
    for (const std::string &name : bench_axis) {
        workloads.push_back(
            must(reg.workloads.resolve(name), "bench"));
    }

    vliw_assert(datasets >= 1, "grid wants at least one data set");
    std::vector<std::uint64_t> seeds;
    if (datasets > 1) {
        seeds.reserve(std::size_t(datasets));
        for (int d = 0; d < datasets; ++d)
            seeds.push_back(datasetSeed(base.execSeed, d));
    }

    std::vector<ExperimentSpec> out;
    out.reserve(size());
    for (std::size_t bi = 0; bi < bench_axis.size(); ++bi) {
        for (const ArchSpec &arch : arch_specs) {
            for (const api::SchedulerChoice &h : heuristic_axis) {
                for (UnrollPolicy u : unroll_axis) {
                    for (bool align : alignment) {
                        for (bool chain : chains) {
                            for (bool ver : versioning) {
                                ExperimentSpec spec;
                                spec.bench = bench_axis[bi];
                                spec.arch = arch;
                                spec.opts = base;
                                spec.opts.heuristic = h.heuristic;
                                spec.opts.optimalSolver = h.optimal;
                                spec.opts.solverBudget = h.budget;
                                spec.opts.unroll = u;
                                spec.opts.varAlignment = align;
                                spec.opts.memChains = chain;
                                spec.opts.loopVersioning = ver;
                                spec.execSeeds = seeds;
                                spec.workload = workloads[bi];
                                out.push_back(std::move(spec));
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

} // namespace vliw::engine
