#include "attraction_buffer.hh"

#include "support/logging.hh"

namespace vliw {

AttractionBuffer::AttractionBuffer(int entries, int ways,
                                   int num_clusters)
    : tags_(entries / ways, ways), numClusters_(num_clusters)
{
    vliw_assert(entries % ways == 0,
                "attraction buffer entries not divisible by ways");
}

bool
AttractionBuffer::contains(std::uint64_t block, int home_cluster) const
{
    return tags_.probe(key(block, home_cluster)) != TagArray::kNoLine;
}

void
AttractionBuffer::flush()
{
    tags_.clear();
    flushes_ += 1;
}

void
AttractionBuffer::reset()
{
    tags_.reset();
    installs_ = 0;
    evictions_ = 0;
    flushes_ = 0;
}

} // namespace vliw
