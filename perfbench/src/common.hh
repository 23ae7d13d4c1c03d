/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the
 * report every workload fills, the check ledger, timing helpers and
 * the inputs all workloads draw on (architecture and kernel lists,
 * seed mixing, golden files).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window (split in two when tracing). */
    double seconds = 10.0;
    /** Run the traced pass and report per-layer metrics. */
    bool trace = false;
    /** Self-test mode: one short pass of every phase. */
    bool quick = false;
    /** The wivliw_serve executable (serve_closed only). */
    std::string serveBin;
    /** Repository root: examples/kernels and tests/golden. */
    std::string sourceRoot = ".";
    /** Scratch directory for sockets, traces and metric dumps. */
    std::string outDir = ".bench_out";
    /** When the process started (main's first statement). */
    Clock::time_point started = Clock::now();
};

/** One named, unit-carrying number of the report. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Every output check of a run. A mismatch is one failed operation;
 * the first few messages are kept for the report.
 */
class Checks
{
  public:
    /** Count one checked operation; record @p what when !ok. */
    void expect(bool ok, const std::string &what);
    /** Count @p n checked operations that all passed. */
    void passed(std::uint64_t n) { attempted_ += n; }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/**
 * What a workload run produced. `metrics` are the end-to-end (or,
 * traced, the per-layer) metrics named in BENCHMARK.json; `info`
 * holds the workload-specific figures that are printed beside them
 * but are not gated (they are not defined on every workload).
 */
struct Report
{
    Checks checks;
    std::vector<Metric> metrics;
    std::vector<Metric> info;
    /** Library stages the traced pass could not time and check. */
    std::vector<std::string> unmeasured;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void
    addInfo(const std::string &name, double value,
            const std::string &unit)
    {
        info.push_back({name, value, unit});
    }
};

Report runDseSweep(const Options &opts);
Report runSimBatch(const Options &opts);
Report runGapReport(const Options &opts);
Report runServeClosed(const Options &opts);

/**
 * The per-layer metrics only the in-process traced pass measures
 * (compile stages, simulation, memory, report), added as 0 by
 * workloads that never reach those calls.
 */
void addUnusedInProcessLayerMetrics(Report &report);

// ---- timing ----------------------------------------------------------

double secondsSince(Clock::time_point t0);
double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1]; 0 for empty input. */
double quantile(std::vector<double> v, double q);
/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Registry histogram name -> per-bucket counts (bucket i holds
 *  samples <= 2^i us, the last is +Inf). */
using HistogramBuckets = std::map<std::string, std::vector<std::uint64_t>>;

/**
 * The api layer's histograms (pool wait, cell and job time) over the
 * interval between two registry readings, as api.<name>_p50 and
 * _p99 in microseconds.
 */
void addApiMetrics(Report &report, const HistogramBuckets &before,
                   const HistogramBuckets &after);

/**
 * Time repeated set-ups into @p times: at least one, and more until
 * @p minSeconds passed. Before each, @p reset tears down the previous
 * set-up's state outside the timed interval, so only construction is
 * timed; the caller keeps the last set-up's state.
 */
template <typename R, typename F>
void
timeSetups(std::vector<double> &times, double minSeconds, R &&reset,
           F &&setup)
{
    const auto start = Clock::now();
    do {
        reset();
        const auto t0 = Clock::now();
        setup();
        times.push_back(secondsSince(t0));
    } while (secondsSince(start) < minSeconds);
}

// ---- inputs ------------------------------------------------------------

/** The five Table 2 architectures, in report order. */
const std::vector<std::string> &allArchs();

/** splitmix64: decorrelated 64-bit values from a seed. */
std::uint64_t mix64(std::uint64_t x);

/**
 * Execution data-set seed of a workload run: derived from the
 * workload seed, so each --seed simulates different inputs. The
 * profiling (training) input keeps the library default, so the
 * compiled schedules are the ones the goldens pin.
 */
std::uint64_t execSeedFor(std::uint64_t workloadSeed);

/** A starter kernel from examples/kernels: name and .wvl text. */
struct KernelText
{
    std::string name;
    std::string path;
    std::string text;
};

/** fir, dotprod and stencil, read from @p sourceRoot. */
std::vector<KernelText> loadExampleKernels(const std::string &sourceRoot);

std::string readFile(const std::string &path);

/**
 * A golden file split into cell blocks: every line is filed under
 * the key made of its first @p keyFields space-separated fields.
 */
std::map<std::string, std::vector<std::string>>
loadGoldenBlocks(const std::string &path, int keyFields);

/** Compare a rendered cell block with its golden block. */
void checkGoldenBlock(
    Checks &checks,
    const std::map<std::string, std::vector<std::string>> &golden,
    const std::string &key, const std::vector<std::string> &actual,
    const std::string &what);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
