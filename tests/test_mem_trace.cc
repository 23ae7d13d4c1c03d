/**
 * @file
 * Model-level golden for the three L1 organisations: seeded random
 * request streams replayed straight through each memory model, with
 * every access's (readyCycle, class, abHit, referencedRemote) folded
 * into one fingerprint per configuration next to the final MemStats.
 * The stream crosses loop boundaries every few hundred requests, an
 * invalidateAll() and a resetAll() midway, so every piece of model
 * state -- tags, LRU clocks, dirty bits, in-flight tables, Attraction
 * Buffers, MSI states, bus and port timing -- has to evolve exactly
 * as it did when the golden was recorded. The configurations include
 * a geometry whose set counts are not powers of two.
 *
 * Regenerate deliberately with
 *
 *   WIVLIW_REGEN_GOLDEN=1 ./test_mem_trace
 *
 * after verifying the behaviour change is intended.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mem/coherent_cache.hh"
#include "mem/mem_system.hh"
#include "support/random.hh"
#include "util_mem_traffic.hh"

namespace vliw {
namespace {

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

constexpr const char *kGoldenPath = WIVLIW_GOLDEN_DIR "/mem_trace.txt";

constexpr int kRequests = 24000;

struct TraceConfig
{
    std::string name;
    MachineConfig cfg;
    /** Bytes the random addresses span. */
    std::uint64_t footprint;
};

/** 24 KiB: 384 interleaved sets, 96 sets per coherent module and
 *  6 sets per 12-entry Attraction Buffer. */
MachineConfig
oddGeometry(MachineConfig cfg)
{
    cfg.cacheBytes = 24 * 1024;
    cfg.abEntries = 12;
    cfg.validate();
    return cfg;
}

std::vector<TraceConfig>
traceConfigs()
{
    return {
        {"interleaved", MachineConfig::paperInterleaved(), 16 * 1024},
        {"interleaved-ab", MachineConfig::paperInterleavedAb(),
         16 * 1024},
        {"unified-1", MachineConfig::paperUnified(1), 16 * 1024},
        {"unified-5", MachineConfig::paperUnified(5), 16 * 1024},
        {"multivliw", MachineConfig::paperMultiVliw(), 16 * 1024},
        {"interleaved-ab-24k",
         oddGeometry(MachineConfig::paperInterleavedAb()), 48 * 1024},
        {"multivliw-24k", oddGeometry(MachineConfig::paperMultiVliw()),
         48 * 1024},
    };
}

/** FNV-1a over one 64-bit value. */
void
fold(std::uint64_t &fp, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        fp ^= (value >> (8 * byte)) & 0xff;
        fp *= 0x100000001b3ULL;
    }
}

std::string
renderStats(const MemStats &s)
{
    std::ostringstream os;
    os << "acc=";
    for (std::size_t i = 0; i < s.byClass.size(); ++i)
        os << (i ? "/" : "") << s.byClass[i];
    os << " ld=" << s.loads << " st=" << s.stores
       << " ab=" << s.abHits << "/" << s.abInstalls << "/"
       << s.abEvictions << " bus=" << s.busTransfers << "/"
       << s.busWaitCycles << " nl=" << s.nlRequests << "/"
       << s.nlWaitCycles << " wb=" << s.writebacks;
    return os.str();
}

std::string
replay(const TraceConfig &tc, int index)
{
    auto mem = makeMemSystem(tc.cfg);
    const auto *coherent = dynamic_cast<const CoherentCache *>(mem.get());
    Rng rng{std::uint64_t(index) * 7919 + 101};
    std::uint64_t fp = 0xcbf29ce484222325ULL;
    Cycles t = 0;
    std::uint64_t prev_addr = 0;
    int next_boundary = 0;
    std::string before_reset;

    for (int i = 0; i < kRequests; ++i) {
        if (i == next_boundary) {
            mem->loopBoundary();
            next_boundary = i + 100 + int(rng.nextBelow(400));
        }
        if (i == kRequests / 2) {
            before_reset = renderStats(mem->stats());
            mem->resetAll();
            t = 0;
        }
        if (i == 3 * kRequests / 4)
            mem->invalidateAll();

        // Bursty issue: same-cycle runs between short gaps.
        if (!rng.chance(0.6))
            t += Cycles(rng.nextBelow(10));
        MemRequest req = testutil::randomRequest(rng, t, tc.footprint);
        req.attractable = rng.chance(0.8);
        // Some spatial locality, so accesses meet in-flight fills.
        if (rng.chance(0.3))
            req.addr = (prev_addr & ~std::uint64_t(31)) | (req.addr & 31);
        prev_addr = req.addr;
        const MemAccessResult res = mem->access(req);
        fold(fp, std::uint64_t(res.readyCycle));
        fold(fp, std::uint64_t(res.cls));
        fold(fp, std::uint64_t(res.abHit) << 1 |
                     std::uint64_t(res.referencedRemote));

        if (coherent && i % 1000 == 999) {
            EXPECT_TRUE(coherent->coherenceInvariantHolds())
                << tc.name << " after access " << i;
        }
    }

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fp));
    std::ostringstream os;
    os << tc.name << " n=" << kRequests << " fp=" << hex
       << " | " << before_reset << " | " << renderStats(mem->stats())
       << "\n";
    return os.str();
}

TEST(MemTrace, EveryModelMatchesGolden)
{
    const std::vector<TraceConfig> configs = traceConfigs();
    std::string actual;
    for (std::size_t i = 0; i < configs.size(); ++i)
        actual += replay(configs[i], int(i));

    if (std::getenv("WIVLIW_REGEN_GOLDEN")) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.good())
            << "cannot write golden file " << kGoldenPath;
        out << actual;
        GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good())
        << "missing golden file " << kGoldenPath
        << "; regenerate with WIVLIW_REGEN_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::istringstream golden_lines(golden.str());
    std::istringstream actual_lines(actual);
    std::string want, got;
    int line = 0;
    while (std::getline(golden_lines, want)) {
        ++line;
        ASSERT_TRUE(std::getline(actual_lines, got))
            << "output truncated at golden line " << line << ": "
            << want;
        EXPECT_EQ(got, want) << "golden line " << line;
    }
    EXPECT_FALSE(std::getline(actual_lines, got))
        << "extra output beyond the golden: " << got;
}

} // namespace
} // namespace vliw
