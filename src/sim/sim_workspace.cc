#include "sim_workspace.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vliw {

SimWorkspace &
threadSimWorkspace()
{
    thread_local SimWorkspace ws;
    return ws;
}

SimWorkspace::Kernel &
SimWorkspace::kernelStorage()
{
    if (usedKernels_ == kernels_.size())
        kernels_.push_back(std::make_unique<Kernel>());
    return *kernels_[usedKernels_++];
}

namespace {

/** Smallest power of two >= @p n (n >= 1). */
std::int64_t
nextPow2(std::int64_t n)
{
    std::int64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

int
SimWorkspace::prepare(const Ddg &ddg, const Schedule &sched,
                      const LatencyMap &lat, int regBusLatency)
{
    vliw_assert(sched.ii > 0, "degenerate II");

    const int handle = int(usedKernels_);
    Kernel &k = kernelStorage();
    k.ddg = &ddg;
    k.sched = &sched;
    k.ii = sched.ii;
    k.length = sched.length;
    k.regBusLatency = regBusLatency;

    const std::size_t num_nodes = std::size_t(ddg.numNodes());
    const std::size_t num_copies = sched.copies.size();
    const std::size_t num_items = num_nodes + num_copies;
    k.numOps = num_nodes;
    k.numCopies = num_copies;

    // ---- Issue items (ops + copies), stably sorted by cycle. ----
    // The scratch list is built in (node ids, then copy ids) order;
    // sorting a permutation by (cycle, scratch index) reproduces the
    // seed simulator's stable_sort without its temporary buffer.
    itemScratch_.clear();
    itemScratch_.reserve(num_items);
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        itemScratch_.push_back(
            {false, v, sched.cycleOf(v), sched.clusterOf(v)});
    }
    for (std::size_t c = 0; c < num_copies; ++c) {
        const CopyOp &copy = sched.copies[c];
        itemScratch_.push_back(
            {true, copy.producer, copy.busStart, copy.fromCluster});
    }
    sortPerm_.resize(num_items);
    for (std::size_t i = 0; i < num_items; ++i)
        sortPerm_[i] = std::int32_t(i);
    std::sort(sortPerm_.begin(), sortPerm_.end(),
              [&](std::int32_t a, std::int32_t b) {
                  const int ca = itemScratch_[std::size_t(a)].cycle;
                  const int cb = itemScratch_[std::size_t(b)].cycle;
                  return ca != cb ? ca < cb : a < b;
              });

    // ---- Per-item hot attributes + the periodic issue slots. ----
    allItems_.resize(num_items);
    allIssues_.resize(num_items);
    k.maxStage = 0;
    itemOfNode_.assign(num_nodes, -1);
    itemOfCopy_.assign(num_copies, -1);
    for (std::size_t idx = 0; idx < num_items; ++idx) {
        const std::size_t scratch = std::size_t(sortPerm_[idx]);
        const ProtoItem &proto = itemScratch_[scratch];
        if (scratch < num_nodes)
            itemOfNode_[scratch] = int(idx);
        else
            itemOfCopy_[scratch - num_nodes] = int(idx);

        HotItem &item = allItems_[idx];
        item.node = proto.node;
        item.cluster = proto.cluster;
        item.memStore = 0;
        item.memAttract = 0;
        item.latOrSize = 0;
        if (proto.isCopy) {
            item.kind = ItemKind::Copy;
        } else if (isMemOp(ddg.node(proto.node).kind)) {
            const MemAccessInfo &info = ddg.memInfo(proto.node);
            item.kind = ddg.node(proto.node).kind == OpKind::Load
                ? ItemKind::Load : ItemKind::Store;
            item.memStore = info.isStore ? 1 : 0;
            item.memAttract = info.attractable ? 1 : 0;
            item.latOrSize = info.granularity;
        } else {
            item.kind = ItemKind::Compute;
            item.latOrSize = lat(proto.node);
        }

        Issue &issue = allIssues_[idx];
        issue.item = std::int32_t(idx);
        issue.stage = std::int32_t(proto.cycle / k.ii);
        issue.phase = std::int32_t(proto.cycle % k.ii);
        k.maxStage = std::max(k.maxStage, int(issue.stage));
    }

    // ---- Register operands, each proved stall-free or dynamic. ----
    // A compute or copy producer's value is ready by the consumer's
    // nominal issue time whenever the schedule honours its latency;
    // since the stall offset only grows between the two issues, it
    // is ready at the real issue time too (see the header comment).
    auto provedLatency = [&](int src_item) {
        const HotItem &src = allItems_[std::size_t(src_item)];
        if (src.kind == ItemKind::Compute)
            return src.latOrSize;
        if (src.kind == ItemKind::Copy)
            return regBusLatency;
        return -1;   // loads (and stores) stay dynamic
    };
    auto cycleOf = [&](int item) {
        return itemScratch_[std::size_t(sortPerm_[std::size_t(item)])]
            .cycle;
    };
    auto addOperand = [&](int consumer, int src_item, int distance) {
        const int latency = provedLatency(src_item);
        const bool proved = latency >= 0 &&
            std::int64_t(cycleOf(consumer)) +
                    std::int64_t(distance) * k.ii >=
                std::int64_t(cycleOf(src_item)) + latency;
        protoOps_.push_back({consumer, src_item, distance, !proved});
    };
    protoOps_.clear();
    for (std::size_t idx = 0; idx < num_items; ++idx) {
        const ProtoItem &proto =
            itemScratch_[std::size_t(sortPerm_[idx])];
        if (proto.isCopy) {
            // The copy reads the producer's register in its cluster.
            addOperand(int(idx), itemOfNode_[std::size_t(proto.node)],
                       0);
            continue;
        }
        const NodeId v = proto.node;
        for (int eidx : ddg.inEdges(v)) {
            const DdgEdge &e = ddg.edge(eidx);
            if (e.kind != DepKind::RegFlow)
                continue;
            int src_item;
            if (sched.clusterOf(e.src) == sched.clusterOf(v)) {
                src_item = itemOfNode_[std::size_t(e.src)];
            } else {
                const CopyOp *copy =
                    sched.findCopy(e.src, sched.clusterOf(v));
                vliw_assert(copy, "no copy routes ",
                            ddg.node(e.src).name, " to cluster ",
                            sched.clusterOf(v));
                src_item = itemOfCopy_[std::size_t(
                    copy - sched.copies.data())];
            }
            addOperand(int(idx), src_item, e.distance);
        }
    }

    // ---- Active items: memory ops, dynamic consumers, and the
    // values those consumers read. ----
    activeOf_.assign(num_items, -1);
    int max_distance = 0;
    for (std::size_t idx = 0; idx < num_items; ++idx) {
        if (allItems_[idx].kind == ItemKind::Load ||
            allItems_[idx].kind == ItemKind::Store)
            activeOf_[idx] = 0;
    }
    for (const ProtoOperand &op : protoOps_) {
        if (!op.dynamic)
            continue;
        activeOf_[std::size_t(op.consumer)] = 0;
        activeOf_[std::size_t(op.srcItem)] = 0;
        max_distance = std::max(max_distance, op.distance);
    }
    k.items.clear();
    k.waveSeq.clear();
    for (std::size_t idx = 0; idx < num_items; ++idx) {
        if (activeOf_[idx] < 0)
            continue;
        activeOf_[idx] = int(k.items.size());
        k.items.push_back(allItems_[idx]);
        Issue issue = allIssues_[idx];
        issue.item = std::int32_t(activeOf_[idx]);
        k.waveSeq.push_back(issue);
    }
    // Wave order (r asc, s desc, item asc) == the seed heap's pop
    // order (nominal, iter, item) restricted to one wave; the
    // active renumbering preserves item order.
    std::sort(k.waveSeq.begin(), k.waveSeq.end(),
              [](const Issue &a, const Issue &b) {
                  if (a.phase != b.phase)
                      return a.phase < b.phase;
                  if (a.stage != b.stage)
                      return a.stage > b.stage;
                  return a.item < b.item;
              });

    // ---- Dynamic operands per active item, in CSR form. ----
    // protoOps_ is grouped by consumer in item order already.
    const std::size_t num_active = k.items.size();
    k.opOffsets.assign(num_active + 1, 0);
    k.operands.clear();
    for (const ProtoOperand &op : protoOps_) {
        if (!op.dynamic)
            continue;
        k.opOffsets[std::size_t(activeOf_[std::size_t(op.consumer)]) +
                    1] += 1;
        k.operands.push_back(
            {activeOf_[std::size_t(op.srcItem)], op.distance});
    }
    for (std::size_t i = 0; i < num_active; ++i)
        k.opOffsets[i + 1] += k.opOffsets[i];

    // ---- Instance rings: recycled, gated by stamps. ----
    // A value from instance j must survive until its most distant
    // consumer at j + distance issues, at most maxStage waves
    // later; the depth leaves the seed's margin of three.
    const std::int64_t stages =
        std::max<std::int64_t>(sched.stageCount, k.maxStage + 1);
    const std::int64_t depth = nextPow2(max_distance + stages + 3);
    vliw_assert(sched.stageCount + 2 < depth,
                "stage count exceeds the instance ring");
    vliw_assert(max_distance + sched.stageCount + 2 < depth,
                "loop-carried distance exceeds the instance ring");
    k.ringMask = depth - 1;
    // resize() value-initialises only new slots; stale slots hold
    // stamps from finished runs, which can never match a future
    // instance stamp (stampBase_ is monotonic and starts at 1).
    k.ring.resize(num_active * std::size_t(depth));
    k.loadCls.resize(num_active * std::size_t(depth));
    return handle;
}

SimRunResult
SimWorkspace::run(int kernel, const SimRunParams &params,
                  const AddressSource &addr, MemSystem &mem,
                  const MachineConfig &cfg)
{
    vliw_assert(kernel >= 0 && std::size_t(kernel) < usedKernels_,
                "bad kernel handle ", kernel);
    vliw_assert(params.iterations >= 0, "negative trip count");
    Kernel &k = *kernels_[std::size_t(kernel)];
    vliw_assert(k.regBusLatency < 0 ||
                    k.regBusLatency == cfg.regBusLatency,
                "kernel prepared for register-bus latency ",
                k.regBusLatency, ", run with ", cfg.regBusLatency);
    const Ddg &ddg = *k.ddg;
    const Schedule &sched = *k.sched;
    const std::int64_t iterations = params.iterations;
    const Cycles start = params.startCycle;
    const int ii = k.ii;
    const std::int64_t base = stampBase_;
    const std::size_t num_active = k.items.size();

    SimStats stats;

    SimRunResult result;
    result.endCycle = start;
    if (iterations == 0 || k.numOps + k.numCopies == 0) {
        if (iterations > 0) {
            result.stats.totalCycles =
                (iterations - 1) * ii + k.length;
            result.endCycle = start + result.stats.totalCycles;
        }
        return result;
    }

    // ---- Address cursors of every memory item for this run. ----
    cursors_.resize(num_active);
    if (addr.resolver) {
        for (std::size_t i = 0; i < num_active; ++i) {
            const HotItem &item = k.items[i];
            if (item.kind == ItemKind::Load ||
                item.kind == ItemKind::Store)
                cursors_[i] =
                    AddressCursor(addr.resolver->stream(item.node));
        }
    }

    // ---- Stall-factor attribution (cold path: stalls only). ----
    auto attribute = [&](std::size_t slot, int blocker_item,
                         std::int64_t j, Cycles amount) {
        vliw_assert(k.items[std::size_t(blocker_item)].kind ==
                        ItemKind::Load &&
                    k.ring[slot].stamp == base + j,
                    "stall blocked by a non-load value");
        const AccessClass cls = AccessClass(k.loadCls[slot]);
        stats.stallByClass[std::size_t(cls)] += amount;
        if (cls != AccessClass::RemoteHit)
            return;

        const NodeId p = k.items[std::size_t(blocker_item)].node;
        const MemAccessInfo &info = ddg.memInfo(p);
        const std::int64_t ni = cfg.mappingPeriod();
        const bool multi = info.indirect || !info.strideKnown() ||
            (info.effectiveStride() % ni) != 0;
        if (multi)
            stats.remoteHitFactors.multiCluster += 1;
        if (info.granularity > cfg.interleaveBytes)
            stats.remoteHitFactors.granularity += 1;
        if (params.profile) {
            const MemProfile &prof = params.profile->at(p);
            if (prof.distribution < params.unclearThreshold)
                stats.remoteHitFactors.unclearPreferred += 1;
            if (sched.clusterOf(p) != prof.preferredCluster)
                stats.remoteHitFactors.notInPreferred += 1;
        }
    };

    // ---- Main loop: active instances in nominal issue order,
    // walking the precomputed wave sequence (see the header). ----
    const HotItem *items = k.items.data();
    const Issue *seq = k.waveSeq.data();
    const std::size_t seq_len = k.waveSeq.size();
    const std::int32_t *op_offsets = k.opOffsets.data();
    const Operand *operands = k.operands.data();
    RingSlot *ring = k.ring.data();
    std::uint8_t *load_cls = k.loadCls.data();
    AddressCursor *cursors = cursors_.data();
    const std::int64_t mask = k.ringMask;
    const Cycles reg_bus_lat = cfg.regBusLatency;
    Cycles offset = 0;

    auto slotOf = [&](std::int64_t iter, int item) {
        return std::size_t(iter & mask) * num_active +
            std::size_t(item);
    };

    const std::int64_t waves = iterations + k.maxStage;
    for (std::int64_t w = 0; w < waves; ++w) {
        const Cycles wave_base = start + w * ii;
        for (std::size_t s = 0; s < seq_len; ++s) {
            const Issue issue = seq[s];
            const std::int64_t iter = w - issue.stage;
            if (iter < 0 || iter >= iterations)
                continue;   // pipeline fill / drain wave
            const int pos = issue.item;
            const HotItem &item = items[pos];
            Cycles t_issue = wave_base + issue.phase + offset;

            // Stall-on-use: wait for every dynamic operand. A ring
            // slot whose stamp misses is a live-in/unwritten value,
            // available at cycle 0 exactly like the seed's zeroed
            // ring.
            for (std::int32_t o = op_offsets[pos];
                 o < op_offsets[pos + 1]; ++o) {
                const Operand &op = operands[std::size_t(o)];
                const std::int64_t j = iter - op.distance;
                if (j < 0)
                    continue;   // live-in value
                const std::size_t src_slot = slotOf(j, op.srcItem);
                const RingSlot &src = ring[src_slot];
                const Cycles avail =
                    src.stamp == base + j ? src.ready : 0;
                if (avail > t_issue) {
                    const Cycles amount = avail - t_issue;
                    offset += amount;
                    stats.stallCycles += amount;
                    attribute(src_slot, op.srcItem, j, amount);
                    t_issue = avail;
                }
            }

            const std::size_t slot_idx = slotOf(iter, pos);
            RingSlot &slot = ring[slot_idx];
            slot.stamp = base + iter;

            switch (item.kind) {
              case ItemKind::Copy:
                slot.ready = t_issue + reg_bus_lat;
                continue;
              case ItemKind::Compute:
                slot.ready = t_issue + item.latOrSize;
                continue;
              case ItemKind::Load:
              case ItemKind::Store:
                break;
            }

            MemRequest req;
            req.cluster = item.cluster;
            req.addr = addr.resolver
                ? cursors[pos].next(iter)
                : addr.fn(addr.ctx, item.node, iter);
            req.size = item.latOrSize;
            req.isStore = item.memStore != 0;
            req.issueCycle = t_issue;
            req.attractable = item.memAttract != 0;
            const MemAccessResult res = mem.access(req);

            stats.memAccesses += 1;
            stats.accessesByClass[std::size_t(res.cls)] += 1;
            if (res.abHit)
                stats.abHits += 1;

            if (item.kind == ItemKind::Load) {
                slot.ready = res.readyCycle;
                load_cls[slot_idx] = std::uint8_t(res.cls);
            } else {
                slot.ready = t_issue + 1;
            }
        }
    }

    stampBase_ += iterations;

    // Every item issues exactly once per iteration, active or not.
    stats.dynamicOps = k.numOps * std::uint64_t(iterations);
    stats.dynamicCopies = k.numCopies * std::uint64_t(iterations);

    result.stats = stats;
    result.stats.totalCycles = (iterations - 1) * ii + k.length +
        offset;
    result.endCycle = start + result.stats.totalCycles;
    return result;
}

} // namespace vliw
