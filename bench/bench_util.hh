/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: the
 * shared api::Session, experiment arms as sweep requests, and common
 * derived metrics. Every binary in bench/ regenerates one table or
 * figure of the paper and prints the same rows/series the paper
 * reports.
 */

#ifndef WIVLIW_BENCH_BENCH_UTIL_HH
#define WIVLIW_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace vliw::bench {

/**
 * The process-wide session behind every harness in bench/: one
 * worker pool sized to the machine and one compile cache that
 * persists across experiment arms, so e.g. the interleaved and
 * interleaved-ab arms of one figure compile the suite once.
 * Results are bit-identical for every worker count.
 */
inline api::Session &
session()
{
    static api::Session s{api::SessionOptions{
        int(std::max(1u, std::thread::hardware_concurrency()))}};
    return s;
}

/** The scheduler registry key of @p h ("base", "ibc", "ipbc"). */
inline std::string
schedulerKey(Heuristic h)
{
    std::string key = heuristicName(h);
    for (char &c : key)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return key;
}

/**
 * One experiment arm over the whole suite. @p arch is a registered
 * architecture or a parametric key ("interleaved-ab:ab8"),
 * @p scheduler and @p unroll are registry names. Callers set the
 * remaining request fields (hints, versioning, workloads) on the
 * returned request.
 */
inline api::SweepRequest
arm(std::string arch, std::string scheduler,
    std::string unroll = "selective", bool aligned = true,
    bool chains = true)
{
    api::SweepRequest req;
    req.archs = {std::move(arch)};
    req.schedulers = {std::move(scheduler)};
    req.unrolls = {std::move(unroll)};
    req.alignment = {aligned};
    req.chains = {chains};
    return req;
}

/**
 * The primary data set's run of every cell of a finished sweep, in
 * grid order. A harness has no use for a partial figure, so any
 * failure ends the process with exit code 1.
 */
inline std::vector<BenchmarkRun>
runsOf(api::Result<api::SweepResult> res)
{
    const api::Status failure =
        res.ok() ? res.value().firstError() : res.status();
    if (!failure.ok()) {
        std::fprintf(stderr, "sweep failed: %s\n",
                     failure.toString().c_str());
        std::exit(1);
    }
    std::vector<BenchmarkRun> runs;
    for (engine::ExperimentResult &r : res.value().experiments)
        runs.push_back(std::move(r.datasetRuns.front()));
    return runs;
}

/** Run @p req on the shared session. */
inline std::vector<BenchmarkRun>
suiteRuns(const api::SweepRequest &req)
{
    return runsOf(session().sweep(req));
}

/** Fraction of accesses in @p cls. */
inline double
classShare(const SimStats &s, AccessClass cls)
{
    const double total = double(s.memAccesses);
    return total == 0.0
        ? 0.0
        : double(s.accessesByClass[std::size_t(cls)]) / total;
}

/** Stall share attributed to @p cls. */
inline double
stallShare(const SimStats &s, AccessClass cls)
{
    Cycles total = 0;
    for (Cycles c : s.stallByClass)
        total += c;
    return total == 0
        ? 0.0
        : double(s.stallByClass[std::size_t(cls)]) / double(total);
}

inline Cycles
suiteCycles(const std::vector<BenchmarkRun> &runs)
{
    Cycles total = 0;
    for (const BenchmarkRun &r : runs)
        total += r.total.totalCycles;
    return total;
}

inline Cycles
suiteStall(const std::vector<BenchmarkRun> &runs)
{
    Cycles total = 0;
    for (const BenchmarkRun &r : runs)
        total += r.total.stallCycles;
    return total;
}

} // namespace vliw::bench

#endif // WIVLIW_BENCH_BENCH_UTIL_HH
