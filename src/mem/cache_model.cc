#include "cache_model.hh"

#include "support/math_util.hh"

namespace vliw {

CacheModel::CacheModel(const MachineConfig &cfg)
    : cfg_(cfg),
      nlPorts_(cfg.nextLevelPorts, cfg.memBusOccupancy)
{
    cfg_.validate();
    blockShift_ = floorLog2(std::uint64_t(cfg_.blockBytes));
}

void
CacheModel::resetAll()
{
    pendingFills_.clear();
    nlPorts_.reset();
    resetModel();
    resetStats();
}

} // namespace vliw
