/**
 * @file
 * serve_closed: one `wivliw_serve --listen --jobs 2` daemon driven
 * in a closed loop by two connections of this process. Each
 * connection sends its next request only after the previous job's
 * result arrived. Jobs are timed from the submit write to the
 * parsed result line.
 *
 * Why: this is the only path through the NDJSON wire, support/json
 * and the executor's cross-client queue. Cells this small compute in
 * about a millisecond, so dispatch is a large share of each job, and
 * the cold compiles of seeded kernel variants land beside warm cache
 * reads.
 *
 * The variants are registered during set-up, before the connections
 * submit concurrently: the session's registries are not safe against
 * registrations racing with submissions (api/session.hh asks for
 * registrations first), and wivliw_serve does not serialise them.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "api/api.hh"
#include "dist/ndjson_client.hh"
#include "engine/report.hh"
#include "support/json.hh"

#include "common.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using namespace vliw;

/** The workloads the request mix draws on: the three example
 *  kernels and the three smallest builtins. */
const std::vector<std::string> kCatalogue = {
    "fir", "dotprod", "stencil", "pgpdec", "pgpenc", "pegwitdec"};
const std::vector<std::string> kSchedulers = {"base", "ibc", "ipbc"};
/** Trip counts of registered variants (divisible by every unroll
 *  factor the toolchain picks). */
const std::vector<int> kVariantTrips = {128, 256, 384, 512, 768};

/** Connections of the closed loop; with --jobs 2 this stays within
 *  four threads plus connections. */
constexpr int kConnections = 2;
/**
 * The request cadence is wivliw_load's default mix (tools/
 * wivliw_load.cc), the repo's one traffic model: every 5th submit
 * is a multi-cell sweep, and every 11th request is the odd one out
 * (there an oversized line, here the first run of a registered
 * variant, a cold compile). The variant takes precedence when both
 * fall on one request, as the oversized line does there.
 */
constexpr int kVariantEvery = 11;
constexpr int kSweepEvery = 5;
/**
 * Set-up registers, per connection, variants for this many requests
 * per second of the window (about 2.5x today's rate), so every
 * variant request is a cold compile. A faster daemon runs out and
 * reuses variants from the start of its list, as warm cache reads.
 */
constexpr double kVariantPoolRequestsPerS = 1200.0;
/** Variants per register-workload line (~170 KB, under the 1 MiB
 *  line limit). */
constexpr std::size_t kVariantsPerLine = 256;

// ---- the daemon -------------------------------------------------------------

/**
 * A wivliw_serve child process; stopped and reaped, and its socket
 * and metrics dump removed, on destruction.
 */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &socket,
           const std::string &metricsFile)
        : socket_(socket), metricsFile_(metricsFile)
    {
        ::unlink(socket.c_str());
        std::vector<std::string> args = {opts.serveBin, "--listen", socket,
                                         "--jobs", "2"};
        if (!metricsFile.empty()) {
            args.insert(args.end(), {"--metrics-file", metricsFile,
                                     "--metrics-interval-ms", "50"});
        }
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon must not outlive the benchmark, even a
            // killed one.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            // Results go to our stdout; the daemon's must not.
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                ::dup2(devnull, STDOUT_FILENO);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon() { stop(SIGTERM); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Ask the daemon to drain and exit over @p client and reap it;
     * returns "" for a clean exit, else how it ended.
     */
    std::string
    shutdown(dist::NdjsonClient &client)
    {
        client.sendLine("{\"op\":\"shutdown\"}");
        client.close();
        return stop(0);
    }

    /** Peak resident set of the daemon so far, MiB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        }
        return 0.0;
    }

  private:
    /** Send @p sig (0 = none) and wait; "" on a clean exit. */
    std::string
    stop(int sig)
    {
        if (pid_ <= 0)
            return "not running";
        if (sig)
            ::kill(pid_, sig);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        ::unlink(socket_.c_str());
        if (!metricsFile_.empty())
            ::unlink(metricsFile_.c_str());
        if (WIFSIGNALED(status))
            return "killed by signal " + std::to_string(WTERMSIG(status));
        if (WEXITSTATUS(status) != 0)
            return "exit " + std::to_string(WEXITSTATUS(status));
        return "";
    }

    std::string socket_;
    std::string metricsFile_;
    pid_t pid_ = -1;
};

// ---- one connection ---------------------------------------------------------

/** What one job returned, for the checks after the window. */
struct JobRecord
{
    double doneAtS = 0.0;
    double latencyMs = 0.0;
    int cells = 0;
    /** The request, for the in-process reference (key() memoises). */
    std::string key;
    api::SweepRequest sweep;
    std::string csv;
    std::string error;
};

/**
 * One NDJSON connection. When a tracer is attached every job, every
 * line parse and every status round trip is a span.
 */
class Connection
{
  public:
    explicit Connection(const std::string &socket)
    {
        const auto deadline = Clock::now() + std::chrono::seconds(20);
        while (!client_.connect(socket)) {
            if (Clock::now() > deadline)
                throw std::runtime_error("cannot connect to " + socket);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    dist::NdjsonClient &client() { return client_; }
    void trace(Tracer *tracer) { tracer_ = tracer; }

    /** Send one request and return its response (no job running). */
    json::Value
    call(const std::string &line)
    {
        if (!client_.sendLine(line))
            throw std::runtime_error("connection lost sending " + line);
        for (;;) {
            json::Value v = next();
            if (!v.find("event"))
                return v;
        }
    }

    /**
     * Submit one job and collect its result: the submit write to the
     * parsed result line is the job's latency.
     */
    JobRecord
    job(const std::string &submit, int cell)
    {
        std::optional<Tracer::Scope> span;
        if (tracer_)
            span.emplace(*tracer_, "serve.job", cell);
        cell_ = cell;
        JobRecord rec;
        const auto t0 = Clock::now();
        if (!client_.sendLine(submit))
            throw std::runtime_error("connection lost on submit");
        long long id = -1;
        bool finished = false;
        int events = 0;
        while (id < 0 || !finished) {
            const json::Value v = next();
            if (v.find("event")) {
                ++events;
                if (v.getString("event") == "finished")
                    finished = true;
                continue;
            }
            if (!v.getBool("ok", false)) {
                rec.error = "submit rejected: " + v.getString("error");
                return rec;
            }
            id = v.getInt("job", -1);
            rec.cells = int(v.getInt("total", 0));
        }
        if (tracer_) {
            Tracer::Scope s(*tracer_, "serve.rtt", cell);
            call("{\"op\":\"status\",\"job\":" + std::to_string(id) + "}");
        }
        resultBytes_ = 0;
        const json::Value result =
            call("{\"op\":\"result\",\"job\":" + std::to_string(id) + "}");
        rec.latencyMs =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        if (!result.getBool("ok", false) ||
            result.getString("status") != "ok" ||
            result.getInt("failed", -1) != 0 ||
            result.getInt("completed", -1) != rec.cells)
            rec.error = "job " + std::to_string(id) + " finished " +
                result.getString("status");
        rec.csv = result.getString("csv");
        events_ += events;
        resultLineBytes_ += resultBytes_;
        ++jobs_;
        return rec;
    }

    /** register-workload @p text (one or more benchmarks); throws on
     *  refusal. */
    void
    registerWorkload(const std::string &text)
    {
        const json::Value v = call(
            "{\"op\":\"register-workload\",\"source\":" +
            json::quoted(text) + "}");
        if (!v.getBool("ok", false))
            throw std::runtime_error("register-workload refused: " +
                                     v.getString("error"));
    }

    double eventsPerJob() const { return jobs_ ? double(events_) / jobs_ : 0; }
    double
    resultBytesPerJob() const
    {
        return jobs_ ? double(resultLineBytes_) / jobs_ : 0;
    }

  private:
    /** Read and parse the next line (a json.parse span when traced). */
    json::Value
    next()
    {
        const std::optional<std::string> line = client_.recvLine();
        if (!line)
            throw std::runtime_error("connection lost");
        resultBytes_ = line->size();
        std::optional<json::Value> v;
        {
            std::optional<Tracer::Scope> span;
            if (tracer_)
                span.emplace(*tracer_, "json.parse", cell_);
            v = json::parse(*line);
        }
        if (!v || !v->isObject())
            throw std::runtime_error("unparseable line: " + *line);
        return std::move(*v);
    }

    dist::NdjsonClient client_;
    Tracer *tracer_ = nullptr;
    int cell_ = -1;
    std::size_t resultBytes_ = 0;
    std::uint64_t resultLineBytes_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t jobs_ = 0;
};

// ---- the seeded request mix -------------------------------------------------

/** A seeded copy of an example kernel under a new name. */
struct Variant
{
    std::string name;
    std::string text;
};

/** One request of the mix. */
struct Request
{
    /** Non-null: the request runs this registered variant. */
    const Variant *variant = nullptr;
    std::vector<std::string> workloads;
    std::vector<std::string> archs;
    std::vector<std::string> schedulers;

    /** The same grid as an in-process sweep. */
    api::SweepRequest
    sweep() const
    {
        api::SweepRequest req;
        req.workloads = workloads;
        req.archs = archs;
        req.schedulers = schedulers;
        return req;
    }

    /** Identity of the grid (for memoising its reference). */
    std::string
    key() const
    {
        std::string k;
        for (std::size_t i = 0; i < schedulers.size(); ++i)
            k += (i ? "," : "") + schedulers[i];
        for (const std::string &w : workloads)
            k += "|" + w;
        for (const std::string &a : archs)
            k += "|" + a;
        return k;
    }

    std::string
    submitLine() const
    {
        std::string line = "{\"op\":\"submit\",\"workloads\":[";
        for (std::size_t i = 0; i < workloads.size(); ++i)
            line += (i ? "," : "") + json::quoted(workloads[i]);
        line += "],\"archs\":[";
        for (std::size_t i = 0; i < archs.size(); ++i)
            line += (i ? "," : "") + json::quoted(archs[i]);
        line += "],\"schedulers\":[";
        for (std::size_t i = 0; i < schedulers.size(); ++i)
            line += (i ? "," : "") + json::quoted(schedulers[i]);
        return line + "]}";
    }
};

/** A copy of @p k renamed to @p name with every loop's trip set to @p trip. */
std::string
variantOf(const KernelText &k, const std::string &name, int trip)
{
    std::string text = k.text;
    const std::string header = "benchmark " + k.name + " {";
    const auto h = text.find(header);
    if (h == std::string::npos)
        throw std::runtime_error(k.path + ": no '" + header + "'");
    text.replace(h, header.size(), "benchmark " + name + " {");
    for (std::size_t pos = text.find(" trip "); pos != std::string::npos;
         pos = text.find(" trip ", pos + 1)) {
        const std::size_t digits = pos + 6;
        std::size_t end = digits;
        while (end < text.size() && std::isdigit((unsigned char)text[end]))
            ++end;
        text.replace(digits, end - digits, std::to_string(trip));
    }
    return text;
}

/** Variants 0..@p count-1 of connection @p conn under seed @p seed. */
std::vector<Variant>
variantPool(std::uint64_t seed, int conn, int count,
            const std::vector<KernelText> &kernels)
{
    std::vector<Variant> pool;
    for (int k = 0; k < count; ++k) {
        std::uint64_t rng = mix64(mix64(seed ^ 0x5eedULL) ^
                                  (std::uint64_t(conn) << 40) ^
                                  std::uint64_t(k));
        const auto pick = [&rng](std::size_t n) {
            rng = mix64(rng);
            return std::size_t(rng % n);
        };
        const KernelText &kernel = kernels[pick(kernels.size())];
        char name[32];
        std::snprintf(name, sizeof(name), "v%016llx",
                      static_cast<unsigned long long>(mix64(rng)));
        pool.push_back({name, variantOf(kernel, name,
                                        kVariantTrips[pick(
                                            kVariantTrips.size())])});
    }
    return pool;
}

/** Request @p r of a connection with variants @p pool, seed @p seed. */
Request
makeRequest(std::uint64_t seed, int conn, int r,
            const std::vector<Variant> &pool)
{
    std::uint64_t rng = mix64(mix64(seed) ^ (std::uint64_t(conn) << 40) ^
                              std::uint64_t(r));
    const auto pick = [&rng](std::size_t n) {
        rng = mix64(rng);
        return std::size_t(rng % n);
    };
    Request req;
    req.schedulers = {"ipbc"};
    if (r % kVariantEvery == kVariantEvery - 1) {
        req.variant = &pool[std::size_t(r / kVariantEvery) % pool.size()];
        req.workloads = {req.variant->name};
        req.archs = {allArchs()[pick(allArchs().size())]};
    } else if (r % kSweepEvery == kSweepEvery - 1) {
        req.workloads = {kCatalogue[pick(kCatalogue.size())]};
        req.archs = allArchs();
    } else {
        req.workloads = {kCatalogue[pick(kCatalogue.size())]};
        req.archs = {allArchs()[pick(allArchs().size())]};
        req.schedulers = {kSchedulers[pick(kSchedulers.size())]};
    }
    return req;
}


// ---- the closed loop --------------------------------------------------------

/** Everything a closed-loop window produced. */
struct Window
{
    std::vector<JobRecord> jobs;
    /** The variants the window ran, for the in-process reference. */
    std::set<const Variant *> variants;
    std::vector<int> requestsPerConnection;
    double seconds = 0.0;
};

/**
 * Drive @p conns in a closed loop for @p seconds. Connection c
 * continues its own seeded request sequence from @p nextRequest[c],
 * over its registered variants @p pools[c]. A connection that fails
 * (the daemon hung up or sent garbage) records one failed job and
 * stops.
 */
Window
closedLoop(std::vector<std::unique_ptr<Connection>> &conns,
           std::vector<int> &nextRequest, double seconds,
           std::uint64_t seed, const std::vector<std::vector<Variant>> &pools,
           bool quick)
{
    Window w;
    std::mutex mu;
    const auto start = Clock::now();
    const auto body = [&](std::size_t c) {
        try {
            Connection &conn = *conns[c];
            int done = 0;
            while (secondsSince(start) < seconds ||
                   (quick && done < kVariantEvery)) {
                const int r = nextRequest[c]++;
                const Request req = makeRequest(seed, int(c), r, pools[c]);
                if (req.variant) {
                    std::lock_guard<std::mutex> lock(mu);
                    w.variants.insert(req.variant);
                }
                JobRecord rec = conn.job(req.submitLine(), r);
                rec.key = req.key();
                rec.sweep = req.sweep();
                rec.doneAtS = secondsSince(start);
                ++done;
                std::lock_guard<std::mutex> lock(mu);
                w.jobs.push_back(std::move(rec));
            }
        } catch (const std::exception &e) {
            JobRecord lost;
            lost.doneAtS = secondsSince(start);
            lost.error = "connection " + std::to_string(c) + ": " + e.what();
            std::lock_guard<std::mutex> lock(mu);
            w.jobs.push_back(std::move(lost));
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c)
        threads.emplace_back(body, c);
    for (std::thread &t : threads)
        t.join();
    w.seconds = secondsSince(start);
    return w;
}

/**
 * Median over one-second slices of the window of @p value summed
 * over the jobs finishing in each slice, per second.
 */
template <typename F>
double
medianSliceRate(const Window &w, F &&value)
{
    const int slices = std::max(1, int(w.seconds));
    const double width = w.seconds / slices;
    std::vector<double> sums(std::size_t(slices), 0.0);
    for (const JobRecord &j : w.jobs) {
        const int s = std::min(slices - 1, int(j.doneAtS / width));
        sums[std::size_t(s)] += value(j);
    }
    for (double &s : sums)
        s /= width;
    return median(sums);
}

// ---- checks -----------------------------------------------------------------

/** In-process oracle: the same requests through api::Session. */
class Reference
{
  public:
    explicit Reference(const std::vector<KernelText> &kernels)
    {
        for (const KernelText &k : kernels) {
            if (!session_.registerWorkloadText("", k.text, "file", k.path)
                     .ok())
                throw std::runtime_error("register " + k.path);
        }
    }

    void
    addVariant(const std::string &name, const std::string &text)
    {
        if (registered_.insert(name).second &&
            !session_.registerWorkloadText("", text, "wire", "<wire>").ok())
            throw std::runtime_error("register " + name);
    }

    /** CSV and simulated ops of job @p j's request (memoised). */
    const std::pair<std::string, double> &
    get(const JobRecord &j)
    {
        auto it = memo_.find(j.key);
        if (it != memo_.end())
            return it->second;
        auto res = session_.sweep(j.sweep);
        if (!res.ok())
            throw std::runtime_error("reference sweep: " +
                                     res.status().toString());
        std::ostringstream csv;
        engine::writeCsv(csv, res.value().experiments);
        double ops = 0;
        for (const auto &r : res.value().experiments) {
            for (const BenchmarkRun &run : r.datasetRuns)
                ops += double(run.total.dynamicOps);
        }
        return memo_.emplace(j.key, std::make_pair(csv.str(), ops))
            .first->second;
    }

  private:
    api::Session session_;
    std::set<std::string> registered_;
    std::map<std::string, std::pair<std::string, double>> memo_;
};

/** Check every job of @p w against the in-process reference. */
void
checkJobs(Checks &checks, Reference &ref, const Window &w)
{
    for (const Variant *v : w.variants)
        ref.addVariant(v->name, v->text);
    for (const JobRecord &j : w.jobs) {
        if (!j.error.empty()) {
            checks.expect(false, j.error);
            continue;
        }
        checks.expect(j.csv == ref.get(j).first,
                      "daemon result differs from the in-process run of " +
                          j.key);
    }
}

/** Split a CSV body into rows of fields (header dropped). */
std::vector<std::vector<std::string>>
csvRows(const std::string &csv)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) {
        std::vector<std::string> fields;
        std::stringstream ss(line);
        std::string f;
        while (std::getline(ss, f, ','))
            fields.push_back(f);
        rows.push_back(std::move(fields));
    }
    return rows;
}

// ---- daemon metrics ---------------------------------------------------------

/** Per-bucket counts of every histogram in a Prometheus dump. */
HistogramBuckets
promHistograms(const std::string &text)
{
    HistogramBuckets cumulative;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find("_bucket{");
        if (pos == std::string::npos)
            continue;
        cumulative[line.substr(0, pos)].push_back(
            std::stoull(line.substr(line.rfind(' ') + 1)));
    }
    HistogramBuckets out;
    for (const auto &[name, c] : cumulative) {
        std::vector<std::uint64_t> &counts = out[name];
        for (std::size_t i = 0; i < c.size(); ++i)
            counts.push_back(c[i] - (i ? c[i - 1] : 0));
    }
    return out;
}

/**
 * The daemon's periodic metrics dump written after this call: waits
 * for the file to be replaced (it is renamed into place each
 * interval).
 */
std::string
freshDump(const std::string &path)
{
    struct stat before{};
    ::stat(path.c_str(), &before);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (;;) {
        struct stat now{};
        if (::stat(path.c_str(), &now) == 0 &&
            (now.st_ino != before.st_ino ||
             now.st_mtim.tv_nsec != before.st_mtim.tv_nsec ||
             now.st_mtim.tv_sec != before.st_mtim.tv_sec))
            return readFile(path);
        if (Clock::now() > deadline)
            throw std::runtime_error("no metrics dump at " + path);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/** Sum (us) of histogram @p name in a Prometheus dump. */
double
promSum(const std::string &text, const std::string &name)
{
    const std::string key = name + "_sum ";
    const auto pos = text.find(key);
    return pos == std::string::npos ? 0.0
                                    : std::stod(text.substr(pos + key.size()));
}

std::pair<double, double>
cacheCounts(Connection &conn)
{
    const json::Value v = conn.call("{\"op\":\"cache-stats\"}");
    const json::Value *cache = v.find("cache");
    if (!cache)
        throw std::runtime_error("cache-stats without counters");
    return {double(cache->getInt("hits")), double(cache->getInt("misses"))};
}

/**
 * trace_overhead of the daemon path: short closed-loop windows whose
 * connections carry tracers that record nothing alternate with
 * windows whose tracers record. Both send the same seeded request mix
 * with the same status probe per job, and alternating spreads the
 * host's drift over both. Returns untraced jobs/s over traced jobs/s.
 */
double
traceOverhead(std::vector<std::unique_ptr<Connection>> &conns,
              std::vector<int> &nextRequest, double seconds,
              const Options &opts,
              const std::vector<std::vector<Variant>> &pools, Checks &checks,
              Reference &ref)
{
    const int rounds = opts.quick ? 1 : 8;
    double jobs[2] = {0, 0};
    double secs[2] = {0, 0};
    for (int i = 0; i < rounds; ++i) {
        for (int record = 0; record < 2; ++record) {
            std::vector<std::unique_ptr<Tracer>> tracers;
            for (std::size_t c = 0; c < conns.size(); ++c) {
                tracers.push_back(
                    std::make_unique<Tracer>(int(c), record == 1));
                conns[c]->trace(tracers.back().get());
            }
            const Window w =
                closedLoop(conns, nextRequest, seconds / (2 * rounds),
                           opts.seed, pools, opts.quick);
            checkJobs(checks, ref, w);
            for (const JobRecord &j : w.jobs)
                jobs[record] += j.error.empty() ? 1.0 : 0.0;
            secs[record] += w.seconds;
        }
    }
    for (auto &c : conns)
        c->trace(nullptr);
    return (jobs[0] / secs[0]) / (jobs[1] / secs[1]);
}

} // namespace

Report
runServeClosed(const Options &opts)
{
    if (opts.serveBin.empty())
        throw std::runtime_error("serve_closed needs --serve-bin");
    Report report;
    const std::vector<KernelText> kernels =
        loadExampleKernels(opts.sourceRoot);
    const auto schedGolden = loadGoldenBlocks(
        opts.sourceRoot + "/tests/golden/schedule_equivalence.txt", 3);
    // A relative socket path keeps well under the sun_path limit.
    const std::string socket =
        opts.outDir + "/serve-" + std::to_string(::getpid()) + ".sock";
    const std::string metricsFile = opts.trace
        ? opts.outDir + "/serve-" + std::to_string(::getpid()) + ".prom"
        : "";

    // Each connection's variants, enough for the whole window (the
    // traced run's windows add up to --seconds as well).
    const int poolSize = opts.quick
        ? 1
        : int(std::ceil(opts.seconds * kVariantPoolRequestsPerS /
                        kVariantEvery));
    std::vector<std::vector<Variant>> pools;
    for (int c = 0; c < kConnections; ++c)
        pools.push_back(variantPool(opts.seed, c, poolSize, kernels));

    // Set-up: boot the daemon, register the kernels and the variants,
    // and warm every catalogue cell (5 archs x 3 schedulers). The
    // warm results are the golden-checked, seed-independent
    // sim_cycles cells.
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Connection>> conns;
    Window warm;
    const auto reset = [&] {
        if (daemon && !conns.empty())
            daemon->shutdown(conns.front()->client());
        conns.clear();
        daemon.reset();
    };
    const auto setup = [&] {
        daemon = std::make_unique<Daemon>(opts, socket, metricsFile);
        for (int c = 0; c < kConnections; ++c)
            conns.push_back(std::make_unique<Connection>(socket));
        for (const KernelText &k : kernels)
            conns.front()->registerWorkload(k.text);
        for (const std::vector<Variant> &pool : pools) {
            for (std::size_t i = 0; i < pool.size(); i += kVariantsPerLine) {
                std::string text;
                for (std::size_t j = i;
                     j < std::min(pool.size(), i + kVariantsPerLine); ++j)
                    text += pool[j].text + "\n";
                conns.front()->registerWorkload(text);
            }
        }
        warm.jobs.clear();
        for (const std::string &w : kCatalogue) {
            Request req;
            req.workloads = {w};
            req.archs = allArchs();
            req.schedulers = kSchedulers;
            JobRecord rec = conns.front()->job(req.submitLine(), -1);
            rec.key = req.key();
            rec.sweep = req.sweep();
            warm.jobs.push_back(std::move(rec));
        }
    };
    // The daemon cannot be rebooted during the closed loop, so its
    // set-ups are repeated here, over several seconds of host noise.
    std::vector<double> setupTimes;
    timeSetups(setupTimes, opts.quick ? 0.0 : 3.0, reset, setup);
    const double setupS = median(setupTimes);

    double simCycles = 0;
    for (const JobRecord &j : warm.jobs) {
        for (const auto &row : csvRows(j.csv)) {
            // benchmark,arch,heuristic,...,cycles (column 7)
            simCycles += std::stod(row.at(7));
            std::string heur = row.at(2);
            std::transform(heur.begin(), heur.end(), heur.begin(),
                           [](unsigned char ch) { return std::tolower(ch); });
            const std::string prefix = row[0] + " " + row[1] + " " + heur;
            const auto it = schedGolden.find(prefix);
            if (it == schedGolden.end())
                continue;    // the example kernels have no golden
            report.checks.expect(it->second.back() ==
                                     prefix + " cycles=" + row.at(7),
                                 prefix + ": daemon cycles differ from the "
                                          "schedule golden");
        }
    }

    std::vector<int> nextRequest(kConnections, 0);
    report.addInfo("first_op_after_s", secondsSince(opts.started), "s");
    Reference ref(kernels);
    checkJobs(report.checks, ref, warm);

    if (!opts.trace) {
        const Window untraced =
            closedLoop(conns, nextRequest, opts.quick ? 0.0 : opts.seconds,
                       opts.seed, pools, opts.quick);
        checkJobs(report.checks, ref, untraced);
        // Rates and latencies count completed jobs only; failed ones
        // are in the checks.
        std::vector<double> latencies;
        for (const JobRecord &j : untraced.jobs) {
            if (j.error.empty())
                latencies.push_back(j.latencyMs);
        }
        report.add("setup_s", setupS, "s");
        report.add("cells_per_s",
                   medianSliceRate(untraced,
                                   [](const JobRecord &j) {
                                       return j.error.empty() ? double(j.cells)
                                                              : 0.0;
                                   }),
                   "cells/s");
        report.add("jobs_per_s",
                   medianSliceRate(untraced,
                                   [](const JobRecord &j) {
                                       return j.error.empty() ? 1.0 : 0.0;
                                   }),
                   "jobs/s");
        report.add("job_p50_ms", median(latencies), "ms");
        report.add("sim_mops_per_s",
                   medianSliceRate(untraced,
                                   [&ref](const JobRecord &j) {
                                       return j.error.empty()
                                           ? ref.get(j).second
                                           : 0.0;
                                   }) /
                       1e6,
                   "Mops/s");
        report.add("sim_cycles", simCycles, "cycles");
        report.add("peak_rss_mb", daemon->peakRssMb(), "MiB");
        report.addInfo("jobs", double(latencies.size()), "count");
        report.addInfo("setups", double(setupTimes.size()), "count");
        // p99 only where at least ten samples lie beyond it.
        if (latencies.size() >= 1000)
            report.addInfo("job_p99_ms", quantile(latencies, 0.99), "ms");
        report.addInfo("job_p90_ms", quantile(latencies, 0.90), "ms");
        report.addInfo("variants_registered", 2.0 * poolSize, "count");
        report.addInfo("variants_run", double(untraced.variants.size()),
                       "count");
    } else {
        report.add("trace_overhead",
                   traceOverhead(conns, nextRequest,
                                 opts.quick ? 0.0 : opts.seconds / 2, opts,
                                 pools, report.checks, ref),
                   "ratio");
        const std::string dumpBefore = freshDump(metricsFile);
        const auto cacheBefore = cacheCounts(*conns.front());
        std::vector<std::unique_ptr<Tracer>> tracers;
        for (int c = 0; c < kConnections; ++c) {
            tracers.push_back(std::make_unique<Tracer>(c));
            conns[std::size_t(c)]->trace(tracers.back().get());
        }
        for (auto &t : tracers)
            t->startWindow();
        const Window traced = closedLoop(conns, nextRequest,
                                         opts.quick ? 0.0 : opts.seconds / 2,
                                         opts.seed, pools, opts.quick);
        for (auto &t : tracers)
            t->stopWindow();
        for (auto &c : conns)
            c->trace(nullptr);
        const auto cacheAfter = cacheCounts(*conns.front());
        const std::string dumpAfter = freshDump(metricsFile);
        checkJobs(report.checks, ref, traced);

        std::vector<const Tracer *> views;
        double connSeconds = 0;
        for (const auto &t : tracers) {
            views.push_back(t.get());
            connSeconds += t->windowSeconds();
        }
        const auto calls = summarize(views);
        const auto mean = [&calls](const std::string &name) {
            const auto it = calls.find(name);
            return it == calls.end() ? 0.0 : it->second.meanUs();
        };
        addUnusedInProcessLayerMetrics(report);
        const double hits = cacheAfter.first - cacheBefore.first;
        const double misses = cacheAfter.second - cacheBefore.second;
        report.add("engine.cache_hits", hits, "count");
        report.add("engine.cache_misses", misses, "count");
        report.add("engine.cache_hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0,
                   "fraction");
        addApiMetrics(report, promHistograms(dumpBefore),
                      promHistograms(dumpAfter));
        double events = 0, bytes = 0;
        for (const auto &c : conns) {
            events += c->eventsPerJob();
            bytes += c->resultBytesPerJob();
        }
        report.add("serve.rtt_us", mean("serve.rtt"), "us");
        report.add("serve.result_bytes", bytes / conns.size(), "bytes");
        report.add("serve.events_per_job", events / conns.size(), "count");
        report.add("json.parse_us", mean("json.parse"), "us");
        // The daemon's job time (queue plus compute, from its
        // wivliw_job_us histogram) lies inside the serve.job spans:
        // it is the api share, and the rest of serve.job is the wire.
        std::map<std::string, double> shares = layerShares(views);
        const double apiShare = (promSum(dumpAfter, "wivliw_job_us") -
                                 promSum(dumpBefore, "wivliw_job_us")) /
            1e6 / connSeconds;
        shares["api"] += apiShare;
        shares["serve"] -= apiShare;
        addShareMetrics(report, shares, connSeconds);
        const std::string path = opts.outDir + "/trace_serve_closed.json";
        report.checks.expect(writeChromeTrace(path, views),
                             "cannot write " + path);
        report.unmeasured = {
            "lang, ddg, workloads, sched, sim and mem run inside the "
            "daemon; the client sees them only as serve.job time",
        };
    }

    const std::string exit = daemon->shutdown(conns.front()->client());
    report.checks.expect(exit.empty(), "daemon did not exit cleanly: " + exit);
    conns.clear();
    return report;
}

} // namespace perfbench
