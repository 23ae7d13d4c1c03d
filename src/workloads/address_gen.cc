#include "address_gen.hh"

#include <algorithm>

#include "support/math_util.hh"

namespace vliw {

namespace {

/** splitmix64 step: cheap stateless per-index hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * a + b * c in two's-complement arithmetic: an unknown stride
 * (kUnknownStride) wraps instead of overflowing.
 */
std::int64_t
wrapMulAdd(std::int64_t a, std::int64_t b, std::int64_t c)
{
    return std::int64_t(std::uint64_t(a) +
                        std::uint64_t(b) * std::uint64_t(c));
}

} // namespace

std::uint64_t
AddressStream::at(std::int64_t iter) const
{
    std::int64_t linear;
    if (indirect) {
        const std::int64_t gi =
            iter * std::int64_t(unrollFactor) + unrollPhase;
        const std::int64_t idx = std::int64_t(
            mix(seed + std::uint64_t(gi)) % std::uint64_t(range));
        linear = linear0 + idx * granularity;
    } else {
        linear = wrapMulAdd(linear0, iter, delta);
    }
    // Wrap inside the symbol; sizes are padded to the mapping
    // period so wrapping never changes the home cluster pattern.
    return base + std::uint64_t(positiveMod(linear, symSize));
}

AddressCursor::AddressCursor(const AddressStream &stream)
    : stream_(&stream), affine_(stream.affine), base_(stream.base),
      size_(stream.symSize)
{
    if (affine_) {
        pos_ = positiveMod(stream.linear0, stream.symSize);
        step_ = positiveMod(stream.delta, stream.symSize);
    }
}

AddressResolver::AddressResolver(const Ddg &ddg,
                                 const BenchmarkSpec &bench,
                                 const DataSet &ds)
{
    nodes_.resize(std::size_t(ddg.numNodes()));
    for (NodeId v : ddg.memNodes()) {
        const MemAccessInfo &info = ddg.memInfo(v);
        vliw_assert(info.symbol >= 0 &&
                    std::size_t(info.symbol) < bench.symbols.size(),
                    "memory node without a bound symbol");
        NodeStream &n = nodes_[std::size_t(v)];
        n.memory = true;
        n.invocationStride = info.invocationStride;
        AddressStream &s = n.stream;
        s.base = ds.symbolBase[std::size_t(info.symbol)];
        s.symSize = ds.wrapSize[std::size_t(info.symbol)];
        s.indirect = info.indirect;
        s.seed = mix(ds.seed ^ (std::uint64_t(v) << 32) ^
                     std::uint64_t(info.symbol));
        s.unrollFactor = info.unrollFactor;
        s.unrollPhase = info.unrollPhase;
        s.granularity = info.granularity;
        if (info.indirect) {
            s.range = info.indexRange > 0
                ? info.indexRange
                : std::max<std::int64_t>(1,
                                         s.symSize / info.granularity);
            n.linear0 = info.offset;
        } else {
            n.linear0 = wrapMulAdd(info.offset, info.unrollPhase,
                                   info.stride);
            s.delta = wrapMulAdd(0, info.unrollFactor, info.stride);
            s.affine = info.strideKnown();
        }
        s.linear0 = n.linear0;
    }
}

void
AddressResolver::setInvocation(int invocation)
{
    for (NodeStream &n : nodes_) {
        n.stream.linear0 =
            wrapMulAdd(n.linear0, invocation, n.invocationStride);
    }
}

} // namespace vliw
