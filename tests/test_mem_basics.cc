/** @file Tests for TagArray, PendingTable, ResourceSet and
 *  AttractionBuffer. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/attraction_buffer.hh"
#include "mem/pending_table.hh"
#include "mem/resource_set.hh"
#include "mem/tag_array.hh"
#include "support/random.hh"

namespace vliw {
namespace {

/** Fill @p key after the missed lookup that picks its line. */
int
fillMissing(TagArray &tags, std::uint64_t key)
{
    bool hit = true;
    const int line = tags.lookup(key, hit);
    EXPECT_FALSE(hit) << "key " << key << " already present";
    tags.fill(line, key);
    return line;
}

TEST(TagArray, HitAfterFill)
{
    TagArray tags(4, 2);
    EXPECT_EQ(tags.probe(17), TagArray::kNoLine);
    const int line = fillMissing(tags, 17);
    EXPECT_EQ(tags.probe(17), line);
    bool hit = false;
    EXPECT_EQ(tags.lookup(17, hit), line);
    EXPECT_TRUE(hit);
}

TEST(TagArray, LruEviction)
{
    TagArray tags(1, 2);   // one set, two ways
    fillMissing(tags, 10);
    fillMissing(tags, 20);
    bool hit = false;
    tags.lookup(10, hit);  // 20 becomes LRU
    const int victim = tags.lookup(30, hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(victim, tags.probe(20));
    tags.fill(victim, 30);
    EXPECT_NE(tags.probe(10), TagArray::kNoLine);
    EXPECT_EQ(tags.probe(20), TagArray::kNoLine);
}

TEST(TagArray, SetIndexingSeparatesKeys)
{
    TagArray tags(4, 1);
    fillMissing(tags, 0);    // set 0
    fillMissing(tags, 1);    // set 1
    fillMissing(tags, 4);    // set 0: evicts key 0
    EXPECT_EQ(tags.probe(0), TagArray::kNoLine);
    EXPECT_NE(tags.probe(1), TagArray::kNoLine);
    EXPECT_NE(tags.probe(4), TagArray::kNoLine);
}

TEST(TagArray, InvalidateAndClear)
{
    TagArray tags(2, 2);
    fillMissing(tags, 5);
    fillMissing(tags, 6);
    EXPECT_TRUE(tags.invalidate(5));
    EXPECT_FALSE(tags.invalidate(5));
    EXPECT_EQ(tags.occupancy(), 1);
    tags.clear();
    EXPECT_EQ(tags.occupancy(), 0);
}

/**
 * Reference tag array with a separate valid bit per line and the
 * probe / victimOf / insert protocol: a miss looks the victim up in
 * a second walk, and the insert walks the set once more.
 */
class ReferenceTags
{
  public:
    ReferenceTags(int sets, int ways)
        : sets_(sets), ways_(ways),
          keys_(std::size_t(sets * ways)),
          lastUse_(std::size_t(sets * ways)),
          valid_(std::size_t(sets * ways)),
          dirty_(std::size_t(sets * ways))
    {}

    int
    probe(std::uint64_t key) const
    {
        const int first = int(key % std::uint64_t(sets_)) * ways_;
        for (int line = first; line < first + ways_; ++line) {
            if (valid_[std::size_t(line)] && keys_[std::size_t(line)] == key)
                return line;
        }
        return TagArray::kNoLine;
    }

    int
    touch(std::uint64_t key)
    {
        const int line = probe(key);
        if (line != TagArray::kNoLine)
            lastUse_[std::size_t(line)] = ++useCounter_;
        return line;
    }

    int
    victimOf(std::uint64_t key) const
    {
        const int first = int(key % std::uint64_t(sets_)) * ways_;
        int victim = first;
        for (int line = first; line < first + ways_; ++line) {
            if (!valid_[std::size_t(line)])
                return line;
            if (lastUse_[std::size_t(line)] < lastUse_[std::size_t(victim)])
                victim = line;
        }
        return victim;
    }

    int
    insert(std::uint64_t key)
    {
        const std::size_t v = std::size_t(victimOf(key));
        evictedDirty_ = valid_[v] && dirty_[v];
        keys_[v] = key;
        valid_[v] = true;
        dirty_[v] = false;
        lastUse_[v] = ++useCounter_;
        return int(v);
    }

    void markDirty(int line) { dirty_[std::size_t(line)] = true; }

    bool
    invalidate(std::uint64_t key)
    {
        const int line = probe(key);
        if (line == TagArray::kNoLine)
            return false;
        valid_[std::size_t(line)] = false;
        return true;
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < valid_.size(); ++i)
            valid_[i] = false;
    }

    bool lastEvictionWasDirty() const { return evictedDirty_; }

  private:
    int sets_;
    int ways_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<bool> valid_;
    std::vector<bool> dirty_;
    std::uint64_t useCounter_ = 0;
    bool evictedDirty_ = false;
};

TEST(TagArray, LookupAndFillMatchProbeVictimInsert)
{
    for (int ways = 1; ways <= 4; ++ways) {
        for (int sets : {1, 3, 4, 6, 8}) {
            SCOPED_TRACE(testing::Message() << sets << "x" << ways);
            TagArray tags(sets, ways);
            ReferenceTags ref(sets, ways);
            Rng rng{std::uint64_t(sets * 16 + ways)};
            const std::uint64_t key_range =
                std::uint64_t(3 * sets * ways);
            for (int op = 0; op < 4000; ++op) {
                const std::uint64_t key = rng.nextBelow(key_range);
                if (rng.chance(0.05)) {
                    ASSERT_EQ(tags.invalidate(key), ref.invalidate(key));
                    continue;
                }
                if (rng.chance(0.002)) {
                    tags.clear();
                    ref.clear();
                    continue;
                }
                bool hit = false;
                const int line = tags.lookup(key, hit);
                const int want = ref.touch(key);
                ASSERT_EQ(hit, want != TagArray::kNoLine) << "op " << op;
                if (hit) {
                    ASSERT_EQ(line, want) << "op " << op;
                } else {
                    ASSERT_EQ(line, ref.victimOf(key)) << "op " << op;
                    if (rng.chance(0.2))
                        continue;   // a miss that installs nothing
                    tags.fill(line, key);
                    ASSERT_EQ(ref.insert(key), line) << "op " << op;
                    ASSERT_EQ(tags.lastEvictionWasDirty(),
                              ref.lastEvictionWasDirty())
                        << "op " << op;
                }
                if (rng.chance(0.4)) {
                    tags.markDirty(line);
                    ref.markDirty(line);
                }
                ASSERT_EQ(tags.probe(key), ref.probe(key));
            }
        }
    }
}

TEST(TagArray, FillOutsideTheKeysSetPanics)
{
    TagArray tags(4, 2);
    bool hit = true;
    const int line = tags.lookup(5, hit);   // set 1: lines 2 and 3
    EXPECT_FALSE(hit);
    EXPECT_THROW(tags.fill(line + 2, 5), std::logic_error);
    EXPECT_THROW(tags.fill(line, TagArray::kInvalidKey),
                 std::logic_error);
}

TEST(PendingTable, MatchesMapReferenceUnderNonDecreasingTime)
{
    Rng rng{20261017};
    PendingTable table;
    std::map<std::uint64_t, Cycles> ref;
    Cycles now = 0;
    for (int op = 0; op < 20000; ++op) {
        now += Cycles(rng.nextBelow(4));
        const std::uint64_t key = rng.nextBelow(24);
        if (rng.chance(0.001)) {
            table.clear();
            ref.clear();
            continue;
        }
        if (rng.chance(0.4)) {
            const Cycles until = now + Cycles(rng.nextBelow(30));
            table.set(key, until, now);
            ref[key] = until;
            std::size_t live = 0;
            for (const auto &[k, u] : ref)
                live += u > now ? 1 : 0;
            ASSERT_LE(table.size(), live + 1) << "op " << op;
        }
        const Cycles *got = table.find(key, now);
        const auto it = ref.find(key);
        const bool in_flight = it != ref.end() && it->second > now;
        ASSERT_EQ(got != nullptr, in_flight) << "op " << op;
        if (got) {
            ASSERT_EQ(*got, it->second) << "op " << op;
        }
    }
}

TEST(ResourceSet, GrantsInParallelUpToCount)
{
    ResourceSet buses(2, 2);
    EXPECT_EQ(buses.acquire(10), 10);
    EXPECT_EQ(buses.acquire(10), 10);   // second server
    EXPECT_EQ(buses.acquire(10), 12);   // queued behind first
    EXPECT_EQ(buses.waitCycles(), 2);
    EXPECT_EQ(buses.grants(), 3u);
}

TEST(ResourceSet, PeekDoesNotBook)
{
    ResourceSet ports(1, 3);
    EXPECT_EQ(ports.peek(5), 5);
    EXPECT_EQ(ports.acquire(5), 5);
    EXPECT_EQ(ports.peek(5), 8);
    EXPECT_EQ(ports.peek(9), 9);
}

TEST(ResourceSet, ResetClearsState)
{
    ResourceSet ports(1, 4);
    (void)ports.acquire(0);
    ports.reset();
    EXPECT_EQ(ports.acquire(0), 0);
}

/** Attract a subblock the buffer does not hold. */
void
attract(AttractionBuffer &ab, std::uint64_t block, int home)
{
    bool hit = true;
    const int line = ab.lookup(block, home, hit);
    ASSERT_FALSE(hit) << "subblock already attracted";
    ab.fill(line, block, home);
}

TEST(AttractionBuffer, AttractAndHit)
{
    AttractionBuffer ab(16, 2, 4);
    attract(ab, 100, 2);
    bool hit = false;
    ab.lookup(100, 2, hit);
    EXPECT_TRUE(hit);
    // Same block, different home cluster: a different subblock.
    ab.lookup(100, 3, hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(ab.installs(), 1u);
}

TEST(AttractionBuffer, FlushDropsEverything)
{
    AttractionBuffer ab(16, 2, 4);
    attract(ab, 1, 0);
    attract(ab, 2, 1);
    ab.flush();
    EXPECT_FALSE(ab.contains(1, 0));
    EXPECT_FALSE(ab.contains(2, 1));
    EXPECT_EQ(ab.flushes(), 1u);
}

TEST(AttractionBuffer, CapacityEvicts)
{
    AttractionBuffer ab(4, 2, 4);   // 2 sets x 2 ways
    // Fill one set (keys congruent mod 2) beyond capacity.
    attract(ab, 0, 0);    // key 0 -> set 0
    attract(ab, 2, 0);    // key 8 -> set 0
    attract(ab, 4, 0);    // key 16 -> set 0: evicts LRU (key 0)
    EXPECT_EQ(ab.installs(), 3u);
    EXPECT_EQ(ab.evictions(), 1u);
    EXPECT_FALSE(ab.contains(0, 0));
    EXPECT_TRUE(ab.contains(2, 0));
    EXPECT_TRUE(ab.contains(4, 0));
}

} // namespace
} // namespace vliw
