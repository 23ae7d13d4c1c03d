/**
 * @file
 * Fixed-size worker pool over a mutex/condvar job queue. The only
 * instance the library creates is the one api::detail::AsyncExecutor
 * owns, so every cell of every session runs on it.
 *
 * The queue is priority-aware and client-fair. Scheduling order is:
 *
 *   1. Higher priority bands drain before lower ones (unchanged).
 *   2. Within a band, dispatch is deficit-round-robin across client
 *      keys with a quantum of one job: each client with queued work
 *      holds a slot in an arrival-ordered ring, and every dequeue
 *      takes the front of the current slot's FIFO then advances the
 *      ring. A greedy client's backlog therefore interleaves with
 *      other clients' work instead of starving it.
 *   3. Jobs of one client within one band keep FIFO order.
 *
 * With a single client key (the default) the ring has one slot and
 * the pool degenerates to exactly the old priority-then-FIFO order,
 * which is what the sweep determinism tests compare against. The
 * schedule is deterministic given arrival order: ring membership
 * and rotation depend only on the submission sequence, never on
 * which worker thread dequeues.
 *
 * wait() gives a full barrier. Determinism of a sweep does not
 * come from the pool (thread interleaving is arbitrary)
 * but from the jobs themselves: every experiment seeds its own Rng
 * streams and writes to its own result slot, so execution order
 * cannot influence any value — priorities and fairness reorder only
 * *when* work happens, never what it computes.
 *
 * Jobs should not throw; a job that does is caught at the pool
 * boundary instead of reaching std::terminate, and the first
 * escaped exception is kept for the owner to collect with
 * takeFirstError(). (The async façade additionally catches at its
 * own cell boundary and surfaces escapes as an Internal status;
 * this pool-level capture is the backstop for direct pool users
 * like parallelFor.)
 *
 * The pool feeds the process metrics registry:
 * wivliw_pool_queue_depth (gauge), wivliw_pool_jobs_total, and
 * wivliw_pool_wait_us (submit-to-dispatch latency histogram).
 */

#ifndef WIVLIW_ENGINE_WORKER_POOL_HH
#define WIVLIW_ENGINE_WORKER_POOL_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace vliw::engine {

/** Fixed-size thread pool; destruction joins after draining. */
class WorkerPool
{
  public:
    /**
     * @param threads worker count; 0 picks the hardware
     *        concurrency (at least 1). With 1 worker the pool
     *        degenerates to serial priority-then-fair-FIFO
     *        execution, which is what the determinism tests
     *        compare against.
     */
    explicit WorkerPool(int threads = 0);

    /** Drains the queue, then joins every worker. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue one job. Higher @p priority runs first; within a
     * priority, clients round-robin and one client's jobs keep
     * submission order. @p client groups jobs for fairness — all
     * default-client work behaves exactly like the classic single
     * FIFO. Jobs should not throw — an exception that escapes one
     * is captured (see takeFirstError()) and the worker carries
     * on.
     */
    void submit(std::function<void()> job, int priority = 0,
                std::uint64_t client = 0);

    /** Block until every submitted job has finished. */
    void wait();

    /**
     * Grow the pool to at least @p threads workers (never
     * shrinks). Lets a long-lived shared pool honour a later
     * request's larger concurrency without restarting in-flight
     * work.
     */
    void ensureThreads(int threads);

    /**
     * The first exception that escaped a job since the last call,
     * or nullptr. Collecting it clears the slot.
     */
    std::exception_ptr takeFirstError();

    int threadCount() const;

    /** Jobs queued but not yet dispatched (diagnostic). */
    std::size_t queueDepth() const;

  private:
    /** A queued closure with its per-client FIFO key. */
    struct QueuedJob
    {
        std::uint64_t seq = 0;
        std::chrono::steady_clock::time_point enqueuedAt;
        std::function<void()> fn;
    };

    /**
     * One priority level: per-client FIFOs plus the round-robin
     * ring of clients that currently have queued work, in the
     * order they (re)gained it.
     */
    struct Band
    {
        std::map<std::uint64_t, std::deque<QueuedJob>> perClient;
        std::vector<std::uint64_t> ring;
        std::size_t rrIndex = 0;
    };

    void workerMain();
    /** Pop the next job per the band/ring policy; queue not empty. */
    QueuedJob popLocked();

    mutable std::mutex mu_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    /** Highest priority first. */
    std::map<int, Band, std::greater<int>> bands_;
    std::size_t queued_ = 0;
    std::vector<std::thread> workers_;
    std::uint64_t nextSeq_ = 0;
    std::size_t inFlight_ = 0;
    std::exception_ptr firstError_;
    bool shutdown_ = false;
};

/**
 * Run fn(0) ... fn(n-1) on @p pool and wait for all of them.
 * Indices let each call target its own output slot, so results do
 * not depend on which worker ran which call.
 */
void parallelFor(WorkerPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_WORKER_POOL_HH
