#include "vliw_sim.hh"

#include "sim/sim_workspace.hh"

namespace vliw {

LoopSimResult
simulateLoop(const LoopExecution &loop, MemSystem &mem,
             const MachineConfig &cfg)
{
    // The thread's shared workspace: repeated calls reuse every
    // buffer, so even this convenience entry point stops allocating
    // once its capacity matches the largest loop seen.
    SimWorkspace &ws = threadSimWorkspace();
    ws.clearKernels();
    const int kernel =
        ws.prepare(*loop.ddg, *loop.schedule, *loop.latencies,
                   cfg.regBusLatency);

    SimRunParams params;
    params.profile = loop.profile;
    params.iterations = loop.iterations;
    params.startCycle = loop.startCycle;
    params.unclearThreshold = loop.unclearThreshold;

    AddressSource addr;
    addr.ctx = &loop.addressOf;
    addr.fn = [](const void *ctx, NodeId v, std::int64_t iter) {
        return (*static_cast<const AddressFn *>(ctx))(v, iter);
    };

    const SimRunResult r = ws.run(kernel, params, addr, mem, cfg);
    return {r.stats, r.endCycle};
}

} // namespace vliw
