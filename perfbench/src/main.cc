/**
 * @file
 * wivliw_perfbench: the end-to-end benchmark program. Runs one
 * workload for a fixed time and prints, as its last line, one JSON
 * object {correct, attempted, failed, metrics}. Usually started
 * through perfbench/run.py, which builds it first:
 *
 *   wivliw_perfbench --workload dse_sweep --seed 3 --seconds 10 \
 *                    --trace 0 [--serve-bin PATH] [--source-root DIR]
 *                    [--out-dir DIR] [--quick]
 *
 * The workloads and their metrics are described in
 * perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hh"
#include "support/json.hh"

namespace perfbench {

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (messages_.size() < 8)
        messages_.push_back(what);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

namespace {

/** q-quantile (us) of per-bucket counts, interpolated inside the
 *  bucket the way support/metrics does; 0 when empty. */
double
histogramQuantile(const std::vector<std::uint64_t> &counts, double q)
{
    double total = 0.0;
    for (const std::uint64_t c : counts)
        total += double(c);
    if (total == 0.0)
        return 0.0;
    const int n = int(counts.size());
    // Bucket i ends at 2^i us; the +Inf bucket is read as ending at
    // twice the last finite bound.
    const auto upper = [](int i) { return std::ldexp(1.0, i); };
    const double rank = q * total;
    double seen = 0.0;
    for (int i = 0; i < n; ++i) {
        const double in = double(counts[std::size_t(i)]);
        if (in == 0.0)
            continue;
        if (seen + in >= rank) {
            const double lower = i == 0 ? 0.0 : upper(i - 1);
            const double frac =
                std::min(1.0, std::max(0.0, (rank - seen) / in));
            return lower + (upper(i) - lower) * frac;
        }
        seen += in;
    }
    return upper(n - 2);
}

} // namespace

void
addApiMetrics(Report &report, const HistogramBuckets &before,
              const HistogramBuckets &after)
{
    const std::pair<const char *, const char *> names[] = {
        {"wivliw_pool_wait_us", "api.pool_wait_us"},
        {"wivliw_cell_us", "api.cell_us"},
        {"wivliw_job_us", "api.job_us"}};
    for (const auto &[registryName, metricName] : names) {
        const auto a = after.find(registryName);
        std::vector<std::uint64_t> counts =
            a == after.end() ? std::vector<std::uint64_t>{} : a->second;
        const auto b = before.find(registryName);
        for (std::size_t i = 0;
             b != before.end() && i < counts.size() && i < b->second.size();
             ++i)
            counts[i] -= b->second[i];
        report.add(std::string(metricName) + "_p50",
                   histogramQuantile(counts, 0.50), "us");
        report.add(std::string(metricName) + "_p99",
                   histogramQuantile(counts, 0.99), "us");
    }
}

const std::vector<std::string> &
allArchs()
{
    static const std::vector<std::string> archs = {
        "interleaved", "interleaved-ab", "unified1", "unified5",
        "multivliw"};
    return archs;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
execSeedFor(std::uint64_t workloadSeed)
{
    return mix64(workloadSeed ^ 0x5EED0E1ECull);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<KernelText>
loadExampleKernels(const std::string &sourceRoot)
{
    std::vector<KernelText> out;
    for (const char *name : {"fir", "dotprod", "stencil"}) {
        KernelText k;
        k.name = name;
        k.path = sourceRoot + "/examples/kernels/" + name + ".wvl";
        k.text = readFile(k.path);
        out.push_back(std::move(k));
    }
    return out;
}

std::map<std::string, std::vector<std::string>>
loadGoldenBlocks(const std::string &path, int keyFields)
{
    std::map<std::string, std::vector<std::string>> blocks;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        std::size_t end = 0;
        for (int f = 0; f < keyFields && end != std::string::npos; ++f)
            end = line.find(' ', end == 0 ? 0 : end + 1);
        blocks[line.substr(0, end)].push_back(line);
    }
    return blocks;
}

void
checkGoldenBlock(
    Checks &checks,
    const std::map<std::string, std::vector<std::string>> &golden,
    const std::string &key, const std::vector<std::string> &actual,
    const std::string &what)
{
    const auto it = golden.find(key);
    if (it == golden.end()) {
        checks.expect(false, what + ": no golden block for " + key);
        return;
    }
    const std::vector<std::string> &want = it->second;
    std::string diff;
    for (std::size_t i = 0; i < std::max(want.size(), actual.size());
         ++i) {
        const std::string w = i < want.size() ? want[i] : "<none>";
        const std::string a = i < actual.size() ? actual[i] : "<none>";
        if (w != a) {
            diff = "want '" + w + "' got '" + a + "'";
            break;
        }
    }
    checks.expect(diff.empty(), what + " " + key + ": " + diff);
}

} // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void
usage(int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: wivliw_perfbench --workload NAME [--seed N]\n"
                 "         [--seconds S] [--trace 0|1] [--quick]\n"
                 "         [--serve-bin PATH] [--source-root DIR]\n"
                 "         [--out-dir DIR]\n"
                 "workloads: dse_sweep sim_batch gap_report "
                 "serve_closed\n");
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::stoull(value());
        else if (arg == "--seconds")
            opts.seconds = std::stod(value());
        else if (arg == "--trace")
            opts.trace = value() != "0";
        else if (arg == "--quick")
            opts.quick = true;
        else if (arg == "--serve-bin")
            opts.serveBin = value();
        else if (arg == "--source-root")
            opts.sourceRoot = value();
        else if (arg == "--out-dir")
            opts.outDir = value();
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else
            usage(2);
    }
    if (opts.workload.empty() || !(opts.seconds > 0.0))
        usage(2);
    return opts;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsObject(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + vliw::json::quoted(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + vliw::json::quoted(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    Report report;
    try {
        if (opts.workload == "dse_sweep")
            report = runDseSweep(opts);
        else if (opts.workload == "sim_batch")
            report = runSimBatch(opts);
        else if (opts.workload == "gap_report")
            report = runGapReport(opts);
        else if (opts.workload == "serve_closed")
            report = runServeClosed(opts);
        else
            usage(2);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wivliw_perfbench: %s\n", e.what());
        return 1;
    }

    const Checks &checks = report.checks;
    if (checks.attempted() == 0) {
        std::fprintf(stderr, "wivliw_perfbench: no operation ran\n");
        return 1;
    }
    std::string failures = "[";
    for (std::size_t i = 0; i < checks.messages().size(); ++i) {
        failures += (i ? ", " : "") +
            vliw::json::quoted(checks.messages()[i]);
    }
    failures += "]";
    std::string unmeasured = "[";
    for (std::size_t i = 0; i < report.unmeasured.size(); ++i) {
        unmeasured += (i ? ", " : "") +
            vliw::json::quoted(report.unmeasured[i]);
    }
    unmeasured += "]";
    std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                "\"build\": {\"compiler\": %s, \"type\": %s}, "
                "\"failed_share\": %s, \"failures\": %s, "
                "\"unmeasured\": %s, \"info\": %s}\n",
                vliw::json::quoted(opts.workload).c_str(),
                static_cast<unsigned long long>(opts.seed),
                int(opts.trace),
                vliw::json::quoted(PERFBENCH_CXX).c_str(),
                vliw::json::quoted(PERFBENCH_BUILD_TYPE).c_str(),
                number(double(checks.failed()) /
                       double(checks.attempted()))
                    .c_str(),
                failures.c_str(), unmeasured.c_str(),
                metricsObject(report.info).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                metricsObject(report.metrics).c_str());
    return 0;
}
