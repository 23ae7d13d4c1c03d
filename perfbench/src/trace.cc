#include "trace.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <new>

namespace perfbench {

namespace {

thread_local std::uint64_t tAllocations = 0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
layerOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

} // namespace

std::uint64_t
threadAllocations()
{
    return tAllocations;
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, int cell)
    : tracer_(tracer), id_(tracer.open(name, cell))
{
}

Tracer::Scope::~Scope()
{
    tracer_.close(id_);
}

int
Tracer::open(const char *name, int cell)
{
    if (!record_)
        return -1;
    spans_.push_back(Span{name, nowNs(), 0, current_, cell});
    current_ = int(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].endNs = nowNs();
    current_ = spans_[std::size_t(id)].parent;
}

void
Tracer::startWindow()
{
    windowStart_ = nowNs();
}

void
Tracer::stopWindow()
{
    windowNs_ += nowNs() - windowStart_;
}

double
Tracer::windowSeconds() const
{
    return double(windowNs_) / 1e9;
}

std::map<std::string, CallStats>
summarize(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, CallStats> out;
    for (const Tracer *t : tracers) {
        const auto &spans = t->spans();
        std::vector<std::int64_t> childNs(spans.size(), 0);
        for (const Tracer::Span &s : spans) {
            if (s.parent >= 0)
                childNs[std::size_t(s.parent)] += s.endNs - s.startNs;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            CallStats &c = out[spans[i].name];
            const std::int64_t dur = spans[i].endNs - spans[i].startNs;
            c.calls += 1;
            c.totalUs += double(dur) / 1e3;
            c.selfUs += double(dur - childNs[i]) / 1e3;
        }
    }
    return out;
}

const std::vector<std::string> &
traceLayers()
{
    static const std::vector<std::string> layers = {
        "lang", "ddg", "workloads", "sched", "opt", "sim",
        "engine", "api", "serve", "json"};
    return layers;
}

std::map<std::string, double>
layerShares(const std::vector<const Tracer *> &tracers)
{
    double windowUs = 0.0;
    for (const Tracer *t : tracers)
        windowUs += t->windowSeconds() * 1e6;
    std::map<std::string, double> selfUs;
    for (const auto &[name, stats] : summarize(tracers))
        selfUs[layerOf(name)] += stats.selfUs;

    std::map<std::string, double> shares;
    double covered = 0.0;
    for (const std::string &layer : traceLayers()) {
        const double us = selfUs.count(layer) ? selfUs[layer] : 0.0;
        shares[layer] = windowUs > 0.0 ? us / windowUs : 0.0;
        covered += us;
    }
    shares["uncovered"] =
        windowUs > 0.0 ? std::max(0.0, 1.0 - covered / windowUs) : 0.0;
    return shares;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const Tracer *> &tracers)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::int64_t origin = 0;
    bool first = true;
    for (const Tracer *t : tracers) {
        for (const Tracer::Span &s : t->spans()) {
            if (first || s.startNs < origin)
                origin = s.startNs;
            first = false;
        }
    }
    os << "{\"traceEvents\":[";
    first = true;
    for (const Tracer *t : tracers) {
        const auto &spans = t->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Tracer::Span &s = spans[i];
            os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
               << "\",\"cat\":\"" << layerOf(s.name)
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t->tid()
               << ",\"ts\":" << double(s.startNs - origin) / 1e3
               << ",\"dur\":" << double(s.endNs - s.startNs) / 1e3
               << ",\"args\":{\"span\":" << i
               << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
               << "}}";
            first = false;
        }
    }
    os << "\n]}\n";
    return bool(os);
}

void
addShareMetrics(Report &report, const std::map<std::string, double> &shares,
                double windowSeconds)
{
    for (const std::string &layer : traceLayers())
        report.add("share." + layer, shares.at(layer), "fraction");
    report.add("share.uncovered", shares.at("uncovered"), "fraction");
    report.add("trace.window_s", windowSeconds, "s");
}

} // namespace perfbench

// ---- allocation counting -------------------------------------------------
// Every operator new on a thread bumps that thread's counter, so the
// traced pass can charge allocations to the call it is timing. The
// counter is thread-local: counting costs one add and never contends.

void *
operator new(std::size_t n)
{
    ++perfbench::tAllocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++perfbench::tAllocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
