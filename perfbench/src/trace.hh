/**
 * @file
 * The benchmark's own span recorder. Each span wraps one call the
 * benchmark makes into a library module's public function; spans
 * stay in memory and are written as Chrome trace-event JSON at the
 * end of the run (load the file in chrome://tracing or
 * ui.perfetto.dev).
 *
 * A span is named `<layer>.<call>`; the layer is the prefix. Spans
 * nest by construction (Scope is RAII on one thread), so a span's
 * self time is its duration minus its direct children's durations.
 * Grouping spans of the benchmark itself use the layer `bench`,
 * whose self time is the part of the traced wall time no layer
 * covers.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

/** Allocations made by the calling thread so far (operator new). */
std::uint64_t threadAllocations();

class Tracer
{
  public:
    struct Span
    {
        /** A string literal: `<layer>.<call>`. */
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        int cell = -1;
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, int cell = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_;
    };

    /**
     * Spans of this tracer land on Chrome trace thread @p tid. A
     * tracer that does not @p record keeps no spans but still times
     * its window: the same work, untraced.
     */
    explicit Tracer(int tid = 0, bool record = true)
        : tid_(tid), record_(record)
    {
    }

    /**
     * Open and close the traced window; a tracer may open it
     * several times, and windowSeconds() sums the open intervals.
     */
    void startWindow();
    void stopWindow();
    double windowSeconds() const;

    const std::vector<Span> &spans() const { return spans_; }
    int tid() const { return tid_; }

  private:
    int open(const char *name, int cell);
    void close(int id);

    int tid_;
    bool record_;
    std::vector<Span> spans_;
    int current_ = -1;
    std::int64_t windowStart_ = 0;
    std::int64_t windowNs_ = 0;
};

/** Per-call totals of one span name across tracers. */
struct CallStats
{
    std::uint64_t calls = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;

    double meanUs() const { return calls ? totalUs / double(calls) : 0.0; }
};

/** Span name -> totals, over every tracer given. */
std::map<std::string, CallStats>
summarize(const std::vector<const Tracer *> &tracers);

/** The layers the share report covers, in report order. */
const std::vector<std::string> &traceLayers();

/**
 * Layer -> self time as a share of the tracers' summed window
 * time, plus `uncovered` (time in no layer span).
 */
std::map<std::string, double>
layerShares(const std::vector<const Tracer *> &tracers);

/** Write every span as Chrome trace-event JSON to @p path. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const Tracer *> &tracers);

/**
 * Add the layer-share metrics (`share.<layer>`, `share.uncovered`)
 * and `trace.window_s` to @p report.
 */
void addShareMetrics(Report &report,
                     const std::map<std::string, double> &shares,
                     double windowSeconds);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
