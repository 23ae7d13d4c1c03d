/**
 * @file
 * Reusable scratch state for the cycle-level VLIW simulator,
 * mirroring the scheduler's SchedWorkspace design.
 *
 * The simulator executes one compiled loop for many invocations, and
 * a sweep executes the same loop across many data sets. A
 * SimWorkspace splits that work into two phases:
 *
 *  - prepare(): decode one (Ddg, Schedule, LatencyMap) into a flat
 *    SimKernel -- the issue items that can matter at run time
 *    (below), their operands in CSR form, per-item kind/latency/
 *    access attributes, the periodic issue order and the instance
 *    rings. Built once per compiled loop, reused across every
 *    invocation and every data set.
 *
 *  - run(): execute a prepared kernel against a memory system. The
 *    hot loop touches only flat arrays; once the workspace is warm
 *    it performs no heap allocation at all.
 *
 * Issue order is not discovered with a priority queue the way the
 * seed simulator did it: a modulo schedule issues instances in a
 * pattern that is periodic in the II. Writing an item's cycle as
 * c = s * II + r, instance (iter, item) issues at nominal time
 * (iter + s) * II + r; calling w = iter + s the *wave*, the order
 * within every wave is the fixed sequence sorted by (r asc, s desc,
 * item asc), which equals the seed's heap pop order (nominal, iter,
 * item) exactly. prepare() sorts that sequence once and run() just
 * walks it, skipping the few out-of-range instances in the fill and
 * drain waves.
 *
 * Proved-stall-free operands and the active-item walk. Only values
 * produced by loads can stall a consumer; compute results and
 * register copies arrive when the schedule said they would. run()
 * issues every instance at its nominal time plus a global stall
 * offset that only grows, so a producer instance j issues at
 * nominal(j) + offset(j) and its consumer at iteration j + d at
 * nominal(j + d) + offset', offset' >= offset(j). When the
 * producer is a compute item (latency from the LatencyMap) or a
 * copy (latency regBusLatency) and the schedule satisfies
 *
 *     consumerCycle + d * II >= producerCycle + latency,
 *
 * the value is ready no later than the consumer's issue time in
 * every execution, so prepare() drops that operand from the walk.
 * Operands it cannot prove (load producers, or a schedule that
 * violates its own latencies) stay dynamic and keep run()'s check
 * that only a load may block. The wave walk then keeps only the
 * *active* items -- loads, stores, items with a dynamic operand and
 * the items those operands read. The others cannot stall, cannot
 * move the offset and are never read, so they contribute only to
 * the dynamicOps/dynamicCopies counts, which are count x iterations.
 *
 * Affine address cursors. Bound to a resolver, every memory item
 * gets a per-run AddressCursor over its AddressStream: a direct
 * stream advances by positiveMod(unrollFactor * stride, symSize)
 * with one conditional subtract instead of a per-access callback
 * and division; indirect tables keep the hash (AddressStream::at).
 * A callback source is called per access instead.
 *
 * Stamped instance rings. Each kernel's ring holds
 * depth = nextPow2(maxDistance + stageCount + 3) iterations of
 * every active item, laid out iteration-major
 * (slot = (iter & (depth - 1)) * numActive + item) so the values
 * one wave touches sit on a few adjacent cache lines. Rings are
 * recycled, not re-zeroed: every slot carries a stamp (a
 * monotonically increasing per-instance id), and a read whose
 * stamp does not match behaves exactly like the seed simulator's
 * freshly zeroed slot. This keeps per-run cost proportional to
 * executed instances, not ring capacity, while staying
 * bit-identical to the pre-workspace simulator.
 *
 * Kernel handles stay valid until clearKernels(); the underlying
 * storage survives and is reused, so alternating prepare/run cycles
 * across benchmarks settle into a zero-allocation steady state. A
 * workspace may be reused freely across loops, architectures and
 * memory systems; it is not thread-safe, so use one per thread.
 */

#ifndef WIVLIW_SIM_SIM_WORKSPACE_HH
#define WIVLIW_SIM_SIM_WORKSPACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ddg/ddg.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"
#include "mem/mem_system.hh"
#include "sched/schedule.hh"
#include "sim/sim_stats.hh"
#include "workloads/address_gen.hh"

namespace vliw {

/**
 * Where a run's addresses come from. Non-owning, so binding one per
 * invocation never touches the heap: either a resolver, whose
 * streams run() steps through with cursors, or an arbitrary
 * callback that run() calls once per access.
 */
struct AddressSource
{
    /** The streams of the resolver's current invocation. */
    const AddressResolver *resolver = nullptr;
    /** Used when resolver is null. */
    std::uint64_t (*fn)(const void *ctx, NodeId v,
                        std::int64_t iter) = nullptr;
    const void *ctx = nullptr;

    static AddressSource
    of(const AddressResolver &resolver)
    {
        AddressSource src;
        src.resolver = &resolver;
        return src;
    }
};

/** Per-run inputs that are not part of the prepared kernel. */
struct SimRunParams
{
    /** Profile data for stall-factor attribution (may be null). */
    const ProfileMap *profile = nullptr;
    /** Kernel iterations to run (post-unroll trip count). */
    std::int64_t iterations = 0;
    /** Absolute cycle the loop starts at (keeps bus state sane). */
    Cycles startCycle = 0;
    /** Preferred-cluster concentration below this is "unclear". */
    double unclearThreshold = 0.9;
};

/** Result: stats plus the absolute end cycle. */
struct SimRunResult
{
    SimStats stats;
    Cycles endCycle = 0;
};

class SimWorkspace
{
  public:
    SimWorkspace() = default;
    SimWorkspace(const SimWorkspace &) = delete;
    SimWorkspace &operator=(const SimWorkspace &) = delete;

    /**
     * Decode one compiled loop into a flat kernel. The returned
     * handle stays valid until clearKernels(); @p ddg, @p sched and
     * @p lat must outlive every run() of this kernel.
     *
     * @p regBusLatency is the copy latency the kernel will run with
     * (MachineConfig::regBusLatency). Only when it is given (>= 0)
     * are operands read through a copy proved stall-free, and run()
     * then checks that its machine uses the same latency.
     */
    int prepare(const Ddg &ddg, const Schedule &sched,
                const LatencyMap &lat, int regBusLatency = -1);

    /** Execute @p kernel against @p mem. */
    SimRunResult run(int kernel, const SimRunParams &params,
                     const AddressSource &addr, MemSystem &mem,
                     const MachineConfig &cfg);

    /** Drop all kernel handles; heap storage is kept for reuse. */
    void clearKernels() { usedKernels_ = 0; }

    int numKernels() const { return int(usedKernels_); }

  private:
    /** Per-item execution class, decoded once in prepare(). */
    enum class ItemKind : std::uint8_t { Copy, Load, Store, Compute };

    /** Hot per-item attributes, packed for the run loop. */
    struct HotItem
    {
        NodeId node = kNoNode;  ///< op id, or copy producer
        std::int32_t cluster = 0;
        ItemKind kind = ItemKind::Compute;
        std::uint8_t memStore = 0;
        std::uint8_t memAttract = 0;
        std::uint8_t pad = 0;
        /** Assigned latency (Compute) or access size (Load/Store). */
        std::int32_t latOrSize = 0;
    };

    /** A dynamic operand: source resolved to an active item. */
    struct Operand
    {
        int srcItem = -1;
        int distance = 0;
    };

    /** One entry of the periodic issue sequence. */
    struct Issue
    {
        std::int32_t item = 0;   ///< sorted-item index
        std::int32_t stage = 0;  ///< s in c = s * II + r
        std::int32_t phase = 0;  ///< r in c = s * II + r
    };

    /** One instance-ring slot (one cache line touch per operand). */
    struct RingSlot
    {
        Cycles ready = 0;
        std::int64_t stamp = 0;
    };

    /** A decoded loop: flat arrays only, reused across prepares. */
    struct Kernel
    {
        const Ddg *ddg = nullptr;
        const Schedule *sched = nullptr;
        int ii = 0;
        int length = 0;
        int maxStage = 0;
        /** Copy latency the proofs assumed; -1 = none proved. */
        int regBusLatency = -1;
        /** Every operation / copy item, active or not. */
        std::uint64_t numOps = 0;
        std::uint64_t numCopies = 0;

        /** The active items, in schedule-cycle order. */
        std::vector<HotItem> items;
        /** The wave sequence: (r asc, s desc, item asc). */
        std::vector<Issue> waveSeq;
        /** Dynamic-operand CSR: operands of item i live in
         *  [opOffsets[i], opOffsets[i+1]). */
        std::vector<std::int32_t> opOffsets;
        std::vector<Operand> operands;

        /** Instance rings, iteration-major: slot =
         *  (iter & ringMask) * items.size() + item. A slot is live
         *  only when its stamp matches the reader's instance stamp;
         *  anything else reads as the seed simulator's
         *  zero-initialised slot. */
        std::int64_t ringMask = 0;
        std::vector<RingSlot> ring;
        /** Access class of a load instance (valid iff stamp hits). */
        std::vector<std::uint8_t> loadCls;
    };


    Kernel &kernelStorage();

    // ---- prepare() scratch (reused, never shrunk) ----
    struct ProtoItem
    {
        bool isCopy = false;
        NodeId node = kNoNode;
        int cycle = 0;
        int cluster = 0;
    };
    /** One register operand before the stall-freedom proof. */
    struct ProtoOperand
    {
        int consumer = -1;   ///< sorted-item index
        int srcItem = -1;    ///< sorted-item index
        int distance = 0;
        bool dynamic = true;
    };
    std::vector<ProtoItem> itemScratch_;
    std::vector<int> itemOfNode_;
    std::vector<int> itemOfCopy_;
    std::vector<std::int32_t> sortPerm_;
    std::vector<HotItem> allItems_;
    std::vector<Issue> allIssues_;
    std::vector<ProtoOperand> protoOps_;
    std::vector<int> activeOf_;

    // ---- run() scratch: address cursors of the memory items ----
    std::vector<AddressCursor> cursors_;

    /** Kernel pool: unique_ptr keeps handles stable across growth. */
    std::vector<std::unique_ptr<Kernel>> kernels_;
    std::size_t usedKernels_ = 0;

    /** Next unused instance stamp; advances past every run. */
    std::int64_t stampBase_ = 1;
};

/**
 * The calling thread's shared workspace. Both the one-shot
 * simulateLoop() wrapper and the toolchain's simulate paths use it,
 * so a thread holds one kernel pool however it mixes the entry
 * points. Each entry point claims it with clearKernels() and
 * prepares its own kernels, so callers must not hold kernel handles
 * across someone else's simulation call.
 */
SimWorkspace &threadSimWorkspace();

} // namespace vliw

#endif // WIVLIW_SIM_SIM_WORKSPACE_HH
