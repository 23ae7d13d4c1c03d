/**
 * @file
 * The cell kernel: runExperiment() resolves one ExperimentSpec's
 * workload, compiles it (memoized through a CompileCache when one
 * is given) and simulates every data set. api::Session is the only
 * runner; its executor schedules cells on the session's shared
 * worker pool.
 *
 * Determinism contract: every cell derives all randomness from its
 * own per-experiment seeds and writes only to its own slot, so a
 * sweep's results are bit-identical for every worker count, with
 * the compile cache on or off, and under any interleaving of
 * asynchronous jobs.
 */

#ifndef WIVLIW_ENGINE_ENGINE_HH
#define WIVLIW_ENGINE_ENGINE_HH

#include <atomic>
#include <functional>

#include "engine/compile_cache.hh"
#include "engine/experiment.hh"

namespace vliw::engine {

/**
 * Observation and cancellation hooks for one runExperiment() call.
 * All members are optional; a null hooks pointer means "run to
 * completion silently".
 */
struct RunHooks
{
    /**
     * Cooperative cancellation flag: checked before the compile
     * phase, between compile and simulate, and (via
     * ToolchainOptions::cancel) inside the scheduler's II-retry
     * loop. A cell that observes it set comes back with
     * `cancelled` set and no datasetRuns; a compile that had
     * already finished stays in the cache. When null, the spec's
     * own ToolchainOptions::cancel (if any) is the token.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Called after the compile phase succeeds, before simulation
     * starts; @p result carries the spec and compileMs measured so
     * far. Runs on the worker thread executing the cell.
     */
    std::function<void(const ExperimentResult &result)> compiled;
};

/**
 * Run one experiment cell: resolve the workload, compile (through
 * @p cache when non-null, locally otherwise) and simulate every
 * data set. Never throws: failures land on the result's error
 * slot, cancellation on its `cancelled` flag. This is the one
 * place cell semantics live.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               CompileCache *cache,
                               const RunHooks *hooks = nullptr);

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_ENGINE_HH
