/**
 * @file
 * Address resolution: binds a (possibly unrolled) loop body to a
 * DataSet and yields the byte address of every memory-node instance.
 *
 * Direct accesses follow base + offset + global_iteration * stride,
 * wrapping inside the symbol (sizes are padded to whole mapping
 * periods so wrapping preserves the cluster mapping). Indirect
 * accesses draw deterministic pseudo-random indices from the data
 * set's seed, modelling a[b[i]] table walks.
 *
 * Each memory node's sequence for the current invocation is an
 * AddressStream, the single definition of the address formula:
 * AddressResolver::addressOf() evaluates it at one iteration, and
 * sequential walkers (the simulator, the profiler, the versioning
 * check) step it with an AddressCursor: one add and one conditional
 * subtract per access on direct streams, no division.
 */

#ifndef WIVLIW_WORKLOADS_ADDRESS_GEN_HH
#define WIVLIW_WORKLOADS_ADDRESS_GEN_HH

#include <cstdint>
#include <vector>

#include "ddg/ddg.hh"
#include "support/logging.hh"
#include "workloads/dataset.hh"
#include "workloads/loop_spec.hh"

namespace vliw {

/**
 * The address sequence of one memory node in one invocation:
 * address(iter) = base + positiveMod(linear(iter), symSize), with
 *
 *   direct:   linear(iter) = linear0 + iter * delta
 *   indirect: linear(iter) = linear0 +
 *                 hash(seed, iter * unrollFactor + unrollPhase)
 *                 % range * granularity
 *
 * linear0 folds in the node's offset, its unroll phase (direct) and
 * the invocation's base drift.
 */
struct AddressStream
{
    std::uint64_t base = 0;
    std::int64_t symSize = 1;
    std::int64_t linear0 = 0;
    /** Direct: bytes per kernel iteration (unrollFactor * stride). */
    std::int64_t delta = 0;
    /** Indirect: hash seed and index range. */
    std::uint64_t seed = 0;
    std::int64_t range = 1;
    int unrollFactor = 1;
    int unrollPhase = 0;
    int granularity = 1;
    bool indirect = false;
    /**
     * The stream steps by a fixed delta (a known direct stride), so
     * an AddressCursor can step it without evaluating at().
     */
    bool affine = false;

    /** Byte address at kernel iteration @p iter. */
    std::uint64_t at(std::int64_t iter) const;
};

/**
 * Walks an AddressStream one kernel iteration at a time. An affine
 * stream is stepped: pos stays in [0, symSize) and step < symSize,
 * so one conditional subtract replaces the per-access modulo, and
 * pos, congruent to linear(iter) modulo symSize, equals its
 * positive residue. Any other stream is evaluated with at().
 */
class AddressCursor
{
  public:
    AddressCursor() = default;
    /** Positioned at iteration 0; @p stream must outlive it. */
    explicit AddressCursor(const AddressStream &stream);

    /** Address at @p iter, the iteration after the previous call
     *  (0 on the first). */
    std::uint64_t
    next(std::int64_t iter)
    {
        if (!affine_)
            return stream_->at(iter);
        const std::uint64_t addr = base_ + std::uint64_t(pos_);
        pos_ += step_;
        if (pos_ >= size_)
            pos_ -= size_;
        return addr;
    }

  private:
    const AddressStream *stream_ = nullptr;
    bool affine_ = false;
    std::uint64_t base_ = 0;
    std::int64_t pos_ = 0;
    std::int64_t step_ = 0;
    std::int64_t size_ = 1;
};

/** Per-loop, per-data-set address oracle. */
class AddressResolver
{
  public:
    /**
     * @param ddg   the loop body actually executed (unrolled)
     * @param bench symbol table owner
     * @param ds    bound data set
     */
    AddressResolver(const Ddg &ddg, const BenchmarkSpec &bench,
                    const DataSet &ds);

    /** Select which invocation of the loop is running. */
    void setInvocation(int invocation);

    /** Memory node @p v's stream in the current invocation. */
    const AddressStream &
    stream(NodeId v) const
    {
        const NodeStream &n = nodes_[std::size_t(v)];
        vliw_assert(n.memory, "addressOf on a non-memory node");
        return n.stream;
    }

    /** Address of memory node @p v at kernel iteration @p iter. */
    std::uint64_t
    addressOf(NodeId v, std::int64_t iter) const
    {
        return stream(v).at(iter);
    }

  private:
    struct NodeStream
    {
        bool memory = false;
        /** The stream of the current invocation. */
        AddressStream stream;
        /** stream.linear0 in invocation 0, and its drift. */
        std::int64_t linear0 = 0;
        std::int64_t invocationStride = 0;
    };

    std::vector<NodeStream> nodes_;   // indexed by NodeId
};

} // namespace vliw

#endif // WIVLIW_WORKLOADS_ADDRESS_GEN_HH
