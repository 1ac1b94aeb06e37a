/**
 * @file
 * Unit tests for the cache substrate: array/LRU, MSHRs, and the
 * L1/L2 coherence protocol exercised through a small System.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "cache/mshr.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "net/mesh.hh"
#include "sim/random.hh"
#include "workloads/btree_workload.hh"
#include "workloads/hash_workload.hh"

namespace atomsim
{
namespace
{

TEST(CacheArrayTest, InstallAndFind)
{
    CacheArray arr(4 * 1024, 4);  // 16 sets
    CacheLineState *victim = arr.victim(0x1000);
    ASSERT_NE(victim, nullptr);
    EXPECT_FALSE(victim->valid);
    arr.install(victim, 0x1000);
    EXPECT_EQ(arr.find(0x1000), victim);
    EXPECT_EQ(arr.find(0x1020), victim);  // same line
    EXPECT_EQ(arr.find(0x2000), nullptr);
}

TEST(CacheArrayTest, LruVictimSelection)
{
    CacheArray arr(4 * 1024, 4);
    // Fill one set: lines that alias to set 0 (stride = sets*64).
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    for (int i = 0; i < 4; ++i)
        arr.install(arr.victim(i * stride), i * stride);
    // Touch line 0 so line 1 becomes LRU.
    arr.touch(0);
    CacheLineState *victim = arr.victim(4 * stride);
    ASSERT_TRUE(victim->valid);
    EXPECT_EQ(victim->tag, stride);  // line 1 was least recently used
}

TEST(CacheArrayTest, InvalidFramePreferredOverLru)
{
    CacheArray arr(4 * 1024, 4);
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    for (int i = 0; i < 3; ++i)
        arr.install(arr.victim(i * stride), i * stride);
    CacheLineState *victim = arr.victim(7 * stride);
    EXPECT_FALSE(victim->valid);
}

// Sets are allocated at their first fill: lookups in never-filled sets
// miss without allocating, and one victim() allocates one set.
TEST(CacheArrayTest, LookupsNeverAllocate)
{
    CacheArray arr(16 * 1024, 4, 2);  // 64 sets
    // Index divisor 2: 8 line numbers land in each set.
    const std::uint32_t lines = arr.numSets() * 2 * 4;
    for (std::uint32_t n = 0; n < lines; ++n) {
        const Addr a = Addr(n) * kLineBytes;
        EXPECT_EQ(arr.find(a), nullptr);
        EXPECT_EQ(std::as_const(arr).find(a), nullptr);
        EXPECT_EQ(arr.touch(a), nullptr);
    }
    EXPECT_EQ(arr.setsAllocated(), 0u);

    CacheLineState *frame = arr.victim(0x1000);
    EXPECT_EQ(arr.setsAllocated(), 1u);
    EXPECT_FALSE(frame->valid);
    arr.install(frame, 0x1000);
    // The next victim in that set is its second way: no new set.
    EXPECT_EQ(arr.victim(0x1000 + Addr(arr.numSets()) * 2 * kLineBytes),
              frame + 1);
    EXPECT_EQ(arr.setsAllocated(), 1u);
}

/**
 * The dense array CacheArray replaced: every frame allocated up front,
 * set-major, with the same scans. The reference the sparse array must
 * match decision for decision.
 */
class DenseCacheArray
{
  public:
    DenseCacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
                    std::uint32_t index_div)
        : _numSets(size_bytes / kLineBytes / assoc), _assoc(assoc),
          _indexDiv(index_div), _frames(size_bytes / kLineBytes)
    {
    }

    CacheLineState *
    find(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        const std::uint32_t set = setIndex(line_addr);
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            auto &frame = _frames[std::size_t(set) * _assoc + w];
            if (frame.valid && frame.tag == line_addr)
                return &frame;
        }
        return nullptr;
    }

    CacheLineState *
    touch(Addr line_addr)
    {
        CacheLineState *frame = find(line_addr);
        if (frame)
            frame->lruStamp = ++_stamp;
        return frame;
    }

    CacheLineState *
    victim(Addr line_addr)
    {
        const std::uint32_t set = setIndex(lineAlign(line_addr));
        CacheLineState *lru = nullptr;
        CacheLineState *lru_any = nullptr;
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            auto &frame = _frames[std::size_t(set) * _assoc + w];
            if (!frame.valid)
                return &frame;
            if (!frame.pinned && (!lru || frame.lruStamp < lru->lruStamp))
                lru = &frame;
            if (!lru_any || frame.lruStamp < lru_any->lruStamp)
                lru_any = &frame;
        }
        return lru ? lru : lru_any;
    }

    void
    install(CacheLineState *frame, Addr line_addr)
    {
        frame->reset();
        frame->tag = lineAlign(line_addr);
        frame->valid = true;
        frame->lruStamp = ++_stamp;
    }

    std::uint32_t
    setIndex(Addr line_addr) const
    {
        return std::uint32_t((lineNumber(line_addr) / _indexDiv) &
                             (_numSets - 1));
    }

    std::uint32_t numSets() const { return _numSets; }

    /** Way index of @p frame within its set. */
    std::uint32_t
    wayOf(const CacheLineState *frame) const
    {
        return std::uint32_t(frame - _frames.data()) % _assoc;
    }

    const std::vector<CacheLineState> &frames() const { return _frames; }

  private:
    std::uint32_t _numSets;
    std::uint32_t _assoc;
    std::uint32_t _indexDiv;
    std::uint64_t _stamp = 0;
    std::vector<CacheLineState> _frames;
};

void
expectSameFrame(const CacheLineState *got, std::uint32_t got_way,
                const CacheLineState *want, std::uint32_t want_way,
                std::uint32_t step)
{
    ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
    if (!want)
        return;
    EXPECT_EQ(got_way, want_way) << "step " << step;
    EXPECT_EQ(got->valid, want->valid) << "step " << step;
    EXPECT_EQ(got->tag, want->tag) << "step " << step;
    EXPECT_EQ(got->lruStamp, want->lruStamp) << "step " << step;
    EXPECT_EQ(got->pinned, want->pinned) << "step " << step;
    EXPECT_EQ(got->dirty, want->dirty) << "step " << step;
    EXPECT_EQ(got->data, want->data) << "step " << step;
}

// Seeded random find / touch / victim+install / reset / pin traffic on
// a banked geometry (index_div 2): the sparse array must return the
// same hits, the same victims in the same ways, the same data and the
// same dirty-line count as the dense reference at every step. Most
// traffic lands on 8 hot sets with twice as many lines as ways, so
// victims are real evictions; the rest trickles into the other sets
// so they are allocated one by one over the run.
TEST(CacheArrayTest, MatchesDenseReferenceUnderRandomOps)
{
    constexpr std::uint32_t kBytes = 16 * 1024, kAssoc = 4, kDiv = 2;
    CacheArray sparse(kBytes, kAssoc, kDiv);
    DenseCacheArray dense(kBytes, kAssoc, kDiv);
    const std::uint32_t sets = dense.numSets();
    ASSERT_EQ(sparse.numSets(), sets);

    // Way 0 of each sparse set, taken from the set's first victim()
    // (every way of a fresh set is invalid, so that victim is way 0).
    std::vector<const CacheLineState *> way0(sets, nullptr);
    std::uint32_t filled_sets = 0;
    const auto sparseWay = [&](const CacheLineState *f, std::uint32_t set) {
        return f ? std::uint32_t(f - way0[set]) : 0u;
    };
    const auto denseWay = [&](const CacheLineState *f) {
        return f ? dense.wayOf(f) : 0u;
    };
    const auto dirtyLines = [&] {
        std::uint32_t sparse_dirty = 0, dense_dirty = 0;
        sparse.forEachValid(
            [&](const CacheLineState &f) { sparse_dirty += f.dirty; });
        for (const CacheLineState &f : dense.frames())
            dense_dirty += f.valid && f.dirty;
        return std::make_pair(sparse_dirty, dense_dirty);
    };

    Random rng(2024);
    for (std::uint32_t step = 0; step < 100000; ++step) {
        const std::uint32_t set = rng.below(16) != 0
                                      ? std::uint32_t(rng.below(8))
                                      : std::uint32_t(rng.below(sets));
        const Addr line_no = (rng.below(2 * kAssoc) * sets + set) * kDiv +
                             rng.below(kDiv);
        const Addr addr = line_no * kLineBytes + rng.below(kLineBytes);
        ASSERT_EQ(dense.setIndex(addr), set);

        const std::uint64_t op = rng.below(10);
        CacheLineState *sf = nullptr;
        CacheLineState *df = nullptr;
        if (op < 2) {
            sf = sparse.find(addr);
            df = dense.find(addr);
        } else if (op < 4) {
            sf = sparse.touch(addr);
            df = dense.touch(addr);
        } else if (op < 8) {
            // Fill path: only a miss picks a victim, as in L1 and L2.
            sf = sparse.find(addr);
            df = dense.find(addr);
            if (!sf && !df) {
                sf = sparse.victim(addr);
                df = dense.victim(addr);
                if (!way0[set]) {
                    way0[set] = sf;
                    ++filled_sets;
                }
                expectSameFrame(sf, sparseWay(sf, set), df, denseWay(df),
                                step);
                sparse.install(sf, addr);
                dense.install(df, addr);
                const std::uint64_t word = rng.next();
                const bool dirty = rng.below(2) != 0;
                for (CacheLineState *f : {sf, df}) {
                    std::memcpy(f->data.data(), &word, sizeof(word));
                    f->dirty = dirty;
                    f->state = CoherenceState::Modified;
                }
            }
        } else {
            // Invalidate (reset) or pin/unpin a resident line.
            sf = sparse.find(addr);
            df = dense.find(addr);
            if (sf && df) {
                if (op == 8) {
                    sf->reset();
                    df->reset();
                } else {
                    sf->pinned = !sf->pinned;
                    df->pinned = !df->pinned;
                }
            }
        }
        expectSameFrame(sf, sparseWay(sf, set), df, denseWay(df), step);
        const auto dirty = dirtyLines();
        EXPECT_EQ(dirty.first, dirty.second) << "step " << step;
        ASSERT_EQ(sparse.setsAllocated(), filled_sets) << "step " << step;
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }

    // Same lines in the same sets and ways, in the same order.
    std::vector<std::pair<Addr, std::uint32_t>> want;
    for (const CacheLineState &f : dense.frames()) {
        if (f.valid)
            want.emplace_back(f.tag, dense.wayOf(&f));
    }
    std::vector<std::pair<Addr, std::uint32_t>> got;
    sparse.forEachValid([&](const CacheLineState &f) {
        got.emplace_back(f.tag, sparseWay(&f, dense.setIndex(f.tag)));
    });
    EXPECT_EQ(got, want);
    EXPECT_GT(filled_sets, 8u);
    EXPECT_LE(sparse.setsAllocated(), sets);
}

// forEach walks only the set bits, in ascending core order: the order
// in which L2Tile::startRound's Invs draw their delivery seqs.
TEST(SharerSetTest, ForEachVisitsMembersInAscendingOrder)
{
    const std::vector<CoreId> members = {0, 5, 63, 64, 127, 128, 700, 1023};
    SharerSet set;
    for (CoreId c : {700u, 64u, 1023u, 0u, 128u, 63u, 5u, 127u})
        set.set(c);

    std::vector<CoreId> visited;
    set.forEach([&](CoreId c) { visited.push_back(c); });
    EXPECT_EQ(visited, members);

    std::vector<CoreId> scanned;
    for (CoreId c = 0; c < 1024; ++c) {
        if (set.test(c))
            scanned.push_back(c);
    }
    EXPECT_EQ(visited, scanned);

    std::size_t calls = 0;
    SharerSet().forEach([&](CoreId) { ++calls; });
    EXPECT_EQ(calls, 0u);

    SharerSet cleared;
    cleared.set(700);
    cleared.clear(700);
    cleared.forEach([&](CoreId) { ++calls; });
    EXPECT_EQ(calls, 0u);

    set.clear(0);
    set.clear(700);
    visited.clear();
    set.forEach([&](CoreId c) { visited.push_back(c); });
    EXPECT_EQ(visited, (std::vector<CoreId>{5, 63, 64, 127, 128, 1023}));
}

TEST(MshrTest, TracksOutstandingMisses)
{
    MshrTable mshrs(2);
    EXPECT_FALSE(mshrs.has(0x100));
    mshrs.allocate(0x100);
    EXPECT_TRUE(mshrs.has(0x100));
    EXPECT_TRUE(mshrs.has(0x13f));  // same line
    EXPECT_FALSE(mshrs.full());
    mshrs.allocate(0x200);
    EXPECT_TRUE(mshrs.full());
}

namespace
{

/** Run a completed miss's waiter chain to the end. */
void
runChain(MshrTable &mshrs, Addr line)
{
    for (MshrTable::Waiter *w = mshrs.complete(line); w;)
        w = mshrs.runAndPop(w);
}

} // namespace

TEST(MshrTest, WaitersRunOnComplete)
{
    MshrTable mshrs(2);
    mshrs.allocate(0x100);
    int ran = 0;
    mshrs.addWaiter(0x100, [&] { ++ran; });
    mshrs.addWaiter(0x100, [&] { ++ran; });
    runChain(mshrs, 0x100);
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(mshrs.has(0x100));
}

TEST(MshrTest, OverflowAdmittedWhenEntryFrees)
{
    MshrTable mshrs(1);
    mshrs.allocate(0x100);
    int overflow_ran = 0;
    mshrs.queueForFree([&] { ++overflow_ran; });
    EXPECT_EQ(mshrs.overflowDepth(), 1u);
    runChain(mshrs, 0x100);
    EXPECT_EQ(overflow_ran, 1);
    EXPECT_EQ(mshrs.overflowDepth(), 0u);
}

TEST(MshrTest, CoalescedWaitersFireInOrder)
{
    MshrTable mshrs(4);
    mshrs.allocate(0x100);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        mshrs.addWaiter(0x100, [&order, i] { order.push_back(i); });
    runChain(mshrs, 0x100);
    ASSERT_EQ(order.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(order[i], i);  // strict FIFO
}

// The continuation is a fixed-capacity inline callable: captures that
// outgrow it fail to compile, so the miss path can never fall back to
// heap allocation. Pin the budget here.
static_assert(MshrTable::kContinuationBytes == 72,
              "MSHR continuation capacity changed: re-audit miss-path "
              "captures and the waiter-node budget");
static_assert(sizeof(MshrTable::Continuation) <=
                  MshrTable::kContinuationBytes + 2 * sizeof(void *),
              "MSHR continuation carries unexpected overhead");

TEST(MshrTest, ContinuationPoolReusedWithoutAllocation)
{
    MshrTable mshrs(4);

    // Warm up: establish the pool high-water mark.
    for (int round = 0; round < 4; ++round) {
        mshrs.allocate(0x100);
        for (int i = 0; i < 8; ++i)
            mshrs.addWaiter(0x100, [] {});
        runChain(mshrs, 0x100);
    }
    const std::size_t high_water = mshrs.waiterPoolAllocated();
    EXPECT_GE(high_water, 8u);
    EXPECT_EQ(mshrs.waiterPoolFree(), high_water);

    // Churn: repeated allocate/wait/complete cycles (including
    // overflow admissions) must reuse pooled nodes, never grow.
    for (int round = 0; round < 1000; ++round) {
        const Addr line = 0x1000 + Addr(round % 4) * 0x40;
        mshrs.allocate(line);
        for (int i = 0; i < 8; ++i)
            mshrs.addWaiter(line, [] {});
        runChain(mshrs, line);
    }
    EXPECT_EQ(mshrs.waiterPoolAllocated(), high_water);
    EXPECT_EQ(mshrs.waiterPoolFree(), high_water);
}

TEST(MshrTest, EntriesReusedAcrossDistinctLines)
{
    MshrTable mshrs(2);
    for (int round = 0; round < 64; ++round) {
        const Addr a = 0x4000 + Addr(round) * 0x80;
        const Addr b = a + 0x40;
        mshrs.allocate(a);
        mshrs.allocate(b);
        EXPECT_TRUE(mshrs.full());
        int ran = 0;
        mshrs.addWaiter(a, [&] { ++ran; });
        mshrs.addWaiter(b, [&] { ++ran; });
        runChain(mshrs, a);
        runChain(mshrs, b);
        EXPECT_EQ(ran, 2);
        EXPECT_EQ(mshrs.active(), 0u);
    }
    // Two entries' worth of single waiters: the pool never outgrows
    // the concurrent peak.
    EXPECT_LE(mshrs.waiterPoolAllocated(), 2u);
}

TEST(MshrTest, WaiterMayReallocateSameLineReentrantly)
{
    // A waiter that immediately re-misses the same line (the L1 retry
    // pattern) must see a fresh entry, not the completing one.
    MshrTable mshrs(2);
    mshrs.allocate(0x100);
    bool reallocated = false;
    mshrs.addWaiter(0x100, [&] {
        EXPECT_FALSE(mshrs.has(0x100));
        mshrs.allocate(0x100);
        mshrs.addWaiter(0x100, [&] { reallocated = true; });
    });
    runChain(mshrs, 0x100);
    EXPECT_TRUE(mshrs.has(0x100));
    runChain(mshrs, 0x100);
    EXPECT_TRUE(reallocated);
}

/** Protocol tests: drive L1s directly inside a small system. */
class ProtocolTest : public ::testing::Test
{
  protected:
    static SystemConfig
    config()
    {
        SystemConfig cfg;
        cfg.numCores = 4;
        cfg.l2Tiles = 4;
        cfg.meshRows = 2;
        cfg.ausPerMc = 4;
        cfg.design = DesignKind::NonAtomic;
        return cfg;
    }

    ProtocolTest() : sys(config(), Addr(16) * 1024 * 1024) {}

    void
    drain()
    {
        sys.eventQueue().run();
    }

    System sys;
    static constexpr Addr kAddr = 0x10040;
};

TEST_F(ProtocolTest, LoadMissFillsExclusive)
{
    bool done = false;
    sys.l1(0).load(kAddr, [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Exclusive);
    EXPECT_FALSE(line->dirty);
}

TEST_F(ProtocolTest, StoreMissFillsModifiedWithData)
{
    const std::uint64_t value = 0x1122334455667788ULL;
    bool done = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
    EXPECT_TRUE(line->dirty);
    std::uint64_t back;
    std::memcpy(&back, line->data.data() + (kAddr % kLineBytes), 8);
    EXPECT_EQ(back, value);
}

TEST_F(ProtocolTest, SecondReaderDowngradesOwnerToShared)
{
    const std::uint64_t value = 42;
    bool s0 = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { s0 = true; });
    drain();
    ASSERT_TRUE(s0);

    bool l1done = false;
    sys.l1(1).load(kAddr, [&] { l1done = true; });
    drain();
    ASSERT_TRUE(l1done);

    const CacheLineState *owner = sys.l1(0).array().find(kAddr);
    const CacheLineState *reader = sys.l1(1).array().find(kAddr);
    ASSERT_NE(owner, nullptr);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(owner->state, CoherenceState::Shared);
    EXPECT_EQ(reader->state, CoherenceState::Shared);
    // Reader sees the writer's data through the 3-hop forward.
    std::uint64_t back;
    std::memcpy(&back, reader->data.data() + (kAddr % kLineBytes), 8);
    EXPECT_EQ(back, 42u);
}

TEST_F(ProtocolTest, WriterInvalidatesSharers)
{
    bool a = false;
    bool b = false;
    sys.l1(0).load(kAddr, [&] { a = true; });
    drain();
    sys.l1(1).load(kAddr, [&] { b = true; });
    drain();
    ASSERT_TRUE(a && b);

    const std::uint64_t value = 7;
    bool wrote = false;
    sys.l1(2).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    drain();
    ASSERT_TRUE(wrote);

    EXPECT_EQ(sys.l1(0).array().find(kAddr), nullptr);
    EXPECT_EQ(sys.l1(1).array().find(kAddr), nullptr);
    const CacheLineState *writer = sys.l1(2).array().find(kAddr);
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->state, CoherenceState::Modified);
}

TEST_F(ProtocolTest, OwnershipMigratesBetweenWriters)
{
    const std::uint64_t v1 = 1;
    const std::uint64_t v2 = 2;
    bool w1 = false;
    bool w2 = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&v1), 8,
                    [&] { w1 = true; });
    drain();
    sys.l1(1).store(kAddr + 8, reinterpret_cast<const std::uint8_t *>(&v2),
                    8, [&] { w2 = true; });
    drain();
    ASSERT_TRUE(w1 && w2);

    EXPECT_EQ(sys.l1(0).array().find(kAddr), nullptr);
    const CacheLineState *line = sys.l1(1).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
    // The second writer's line must contain both stores.
    std::uint64_t back1;
    std::uint64_t back2;
    std::memcpy(&back1, line->data.data() + (kAddr % kLineBytes), 8);
    std::memcpy(&back2, line->data.data() + (kAddr % kLineBytes) + 8, 8);
    EXPECT_EQ(back1, 1u);
    EXPECT_EQ(back2, 2u);
}

TEST_F(ProtocolTest, UpgradeFromSharedToModified)
{
    bool a = false;
    sys.l1(0).load(kAddr, [&] { a = true; });
    drain();
    sys.l1(1).load(kAddr, [&] { a = true; });
    drain();
    // Core 0 is Shared now; store triggers an upgrade.
    const std::uint64_t value = 9;
    bool wrote = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    drain();
    ASSERT_TRUE(wrote);
    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
    EXPECT_EQ(sys.l1(1).array().find(kAddr), nullptr);
}

TEST_F(ProtocolTest, FlushMakesLineDurableAndClean)
{
    const std::uint64_t value = 0xfeedfaceULL;
    bool wrote = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    drain();
    ASSERT_TRUE(wrote);
    EXPECT_EQ(sys.nvmImage().load64(kAddr), 0u);  // still volatile

    bool flushed = false;
    sys.l1(0).flush(kAddr, [&] { flushed = true; });
    drain();
    ASSERT_TRUE(flushed);
    EXPECT_EQ(sys.nvmImage().load64(kAddr), value);

    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(line->dirty);   // clean after writeback
    EXPECT_TRUE(line->valid);    // clwb keeps the line cached
}

TEST_F(ProtocolTest, FlushOfCleanLineStillAcks)
{
    bool loaded = false;
    sys.l1(0).load(kAddr, [&] { loaded = true; });
    drain();
    bool flushed = false;
    sys.l1(0).flush(kAddr, [&] { flushed = true; });
    drain();
    EXPECT_TRUE(flushed);
}

TEST_F(ProtocolTest, EvictionWritesBackThroughL2)
{
    // Fill one L1 set beyond capacity with dirty lines; the victim's
    // data must survive in the L2 and be readable by another core.
    const std::uint32_t sets =
        config().l1SizeBytes / (config().l1Assoc * kLineBytes);
    const Addr stride = Addr(sets) * kLineBytes;
    const Addr base = 0x40000;

    for (std::uint32_t i = 0; i <= config().l1Assoc; ++i) {
        const std::uint64_t value = 100 + i;
        bool done = false;
        sys.l1(0).store(base + i * stride,
                        reinterpret_cast<const std::uint8_t *>(&value), 8,
                        [&] { done = true; });
        drain();
        ASSERT_TRUE(done);
    }
    // The first line was evicted from the L1.
    EXPECT_EQ(sys.l1(0).array().find(base), nullptr);

    bool read = false;
    sys.l1(1).load(base, [&] { read = true; });
    drain();
    ASSERT_TRUE(read);
    const CacheLineState *line = sys.l1(1).array().find(base);
    ASSERT_NE(line, nullptr);
    std::uint64_t back;
    std::memcpy(&back, line->data.data(), 8);
    EXPECT_EQ(back, 100u);
}

TEST_F(ProtocolTest, PowerFailEndsTheRun)
{
    // Leave a store mid-miss (its continuation lives in an MSHR
    // waiter), then pull the plug: every pending event is dropped, so
    // no pre-crash continuation can run and the store never completes.
    const std::uint64_t value = 1;
    bool completed = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&completed] { completed = true; });
    sys.eventQueue().run(sys.eventQueue().now() + 5);
    ASSERT_EQ(sys.l1(0).outstandingMisses(), 1u);
    ASSERT_FALSE(sys.eventQueue().empty());

    sys.powerFail();
    EXPECT_TRUE(sys.eventQueue().empty());
    EXPECT_EQ(sys.eventQueue().run(), 0u);
    EXPECT_FALSE(completed);
}

TEST_F(ProtocolTest, MshrMergesConcurrentAccessesToOneLine)
{
    int done = 0;
    sys.l1(0).load(kAddr, [&] { ++done; });
    sys.l1(0).load(kAddr + 8, [&] { ++done; });
    sys.l1(0).load(kAddr + 16, [&] { ++done; });
    drain();
    EXPECT_EQ(done, 3);
    // A single L2 miss despite three accesses.
    EXPECT_EQ(sys.stats().sum("l2t", "misses"), 1u);
}

/** Counts mesh deliveries per message kind. */
class KindCounter : public Mesh::Tracer
{
  public:
    void
    onDeliver(Tick, std::uint32_t, MsgType type) override
    {
        ++counts[std::size_t(type)];
    }

    std::uint64_t
    of(MsgType t) const
    {
        return counts[std::size_t(t)];
    }

    std::array<std::uint64_t, 64> counts{};
};

TEST_F(ProtocolTest, ReadMissRacesInFlightInvalidateAtDirectory)
{
    // Split-phase recall/ack vs. demand-miss race: a GetX's
    // invalidation round is in flight (the line busy at its home
    // tile, Inv packets en route to the sharers) when an L1 read miss
    // for the same line reaches the directory. The GetS must queue
    // behind the busy bit, then resolve through a forward to the new
    // owner -- never observe the half-invalidated sharer set.

    // Two sharers.
    bool a = false;
    bool b = false;
    sys.l1(0).load(kAddr, [&] { a = true; });
    drain();
    sys.l1(1).load(kAddr, [&] { b = true; });
    drain();
    ASSERT_TRUE(a && b);

    // Count protocol messages of the race itself only (the setup's
    // second load already forwarded once through the first reader).
    KindCounter kinds;
    sys.mesh().setTracer(&kinds);

    // Writer starts a GetX; single-step until the invalidate has
    // reached core 0 (its copy is gone) but the write has not yet
    // completed -- the invalidation/grant leg is still in flight.
    const std::uint64_t value = 7;
    bool wrote = false;
    sys.l1(2).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    EventQueue &eq = sys.eventQueue();
    while (sys.l1(0).array().find(kAddr) != nullptr && !wrote)
        eq.run(eq.now() + 1);
    ASSERT_FALSE(wrote)
        << "store completed before the invalidate landed; race window "
           "missed";
    ASSERT_GE(kinds.of(MsgType::Inv), 1u);

    // Reader misses the same line while the GetX transaction is still
    // in flight: the GetS reaches the directory behind the live
    // invalidation round and must serialize after it.
    bool read_done = false;
    sys.l1(0).load(kAddr, [&] { read_done = true; });
    drain();
    ASSERT_TRUE(wrote);
    ASSERT_TRUE(read_done);

    // Final state: the reader and the writer both end Shared (the
    // read forwarded through the new owner and downgraded it), and the
    // line carries the written value everywhere.
    const CacheLineState *writer = sys.l1(2).array().find(kAddr);
    const CacheLineState *reader = sys.l1(0).array().find(kAddr);
    ASSERT_NE(writer, nullptr);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(writer->state, CoherenceState::Shared);
    EXPECT_EQ(reader->state, CoherenceState::Shared);
    std::uint64_t back;
    std::memcpy(&back, reader->data.data() + (kAddr % kLineBytes), 8);
    EXPECT_EQ(back, value);
    // The second sharer stayed invalidated.
    EXPECT_EQ(sys.l1(1).array().find(kAddr), nullptr);

    // Mesh accounting: the GetX invalidated both sharers (2 Inv +
    // 2 InvAck), and the racing GetS resolved as a forward through
    // the new owner (FwdGetS + FwdAckS, the home then granting the
    // reader).
    EXPECT_EQ(kinds.of(MsgType::Inv), 2u);
    EXPECT_EQ(kinds.of(MsgType::InvAck), 2u);
    EXPECT_EQ(kinds.of(MsgType::FwdGetS), 1u);
    EXPECT_EQ(kinds.of(MsgType::FwdAckS), 1u);
    sys.mesh().setTracer(nullptr);
}

TEST(SplitPhaseEvictionRaceTest, QueuedDemandMissWaitsOutEvictionRound)
{
    // Regression: a demand miss that queues on the victim line's busy
    // bit *during* a split-phase eviction round must re-run against
    // the re-tagged frame (a clean miss + refetch) once the round
    // completes -- not be granted the stale still-valid copy the L2
    // is dropping (which left the directory tracking an owner for a
    // line no longer resident: a later PutM then tripped the
    // inclusion panic).
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::NonAtomic;
    cfg.l2TileBytes = 4096;  // direct-mapped 64-set tiles: any
    cfg.l2Assoc = 1;         // same-set fill evicts the occupant
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    const Addr lineB = 0x40000;
    // Same home tile and same set as B: stride = tiles * sets lines.
    const Addr lineA =
        lineB + Addr(cfg.l2Tiles) * 64 * kLineBytes;

    // Core 0 owns B dirty.
    const std::uint64_t value = 0xabcdef0123ULL;
    bool wrote = false;
    sys.l1(0).store(lineB,
                    reinterpret_cast<const std::uint8_t *>(&value), 8,
                    [&] { wrote = true; });
    eq.run();
    ASSERT_TRUE(wrote);

    // Core 1 fills A, evicting B at the home tile: a split-phase
    // recall round on B (Recall to core 0 in flight, B busy).
    bool filled = false;
    sys.l1(1).load(lineA, [&] { filled = true; });
    bool round_live = false;
    for (int i = 0; i < 100000 && !round_live; ++i) {
        eq.run(eq.now() + 1);
        for (std::uint32_t t = 0; t < cfg.l2Tiles; ++t) {
            L2Tile &tile = sys.l2Tile(t);
            if (tile.roundPoolAllocated() > tile.roundPoolFree())
                round_live = true;
        }
    }
    ASSERT_TRUE(round_live) << "eviction round never went in flight";

    // Core 2's read miss for B reaches the directory mid-round and
    // queues on the busy bit.
    bool read = false;
    sys.l1(2).load(lineB, [&] { read = true; });
    eq.run();
    ASSERT_TRUE(filled);
    ASSERT_TRUE(read);

    // The reader refetched B cleanly: it holds core 0's data, and
    // inclusion holds (B resident at its home tile again).
    const CacheLineState *line = sys.l1(2).array().find(lineB);
    ASSERT_NE(line, nullptr);
    std::uint64_t back;
    std::memcpy(&back, line->data.data(), 8);
    EXPECT_EQ(back, value);
    const std::uint32_t home = sys.addressMap().homeTile(lineB);
    EXPECT_NE(sys.l2Tile(home).array().find(lineB), nullptr);

    // And the line stays fully coherent: core 2 can take ownership
    // and write back without tripping the home's inclusion check.
    const std::uint64_t value2 = 0x5555aaaaULL;
    bool wrote2 = false;
    sys.l1(2).store(lineB,
                    reinterpret_cast<const std::uint8_t *>(&value2), 8,
                    [&] { wrote2 = true; });
    eq.run();
    ASSERT_TRUE(wrote2);
    bool flushed = false;
    sys.l1(2).flush(lineB, [&] { flushed = true; });
    eq.run();
    ASSERT_TRUE(flushed);
    EXPECT_EQ(sys.nvmImage().load64(lineB), value2);
}

TEST(WritebackRaceTest, LoadDuringInFlightPutMGoesThroughHome)
{
    // A load that misses while its line's PutM is still in flight to
    // home (between the eviction and the home's WbAck) is an ordinary
    // miss: it fetches through home with a GetS, and the line stays
    // coherent for every core afterwards.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::NonAtomic;
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    // Dirty a line, then evict it by filling its L1 set.
    const std::uint32_t sets =
        cfg.l1SizeBytes / (cfg.l1Assoc * kLineBytes);
    const Addr stride = Addr(sets) * kLineBytes;
    const Addr base = 0x40000;
    const std::uint64_t value = 0x1234cafeULL;
    bool wrote = false;
    sys.l1(0).store(base, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    eq.run();
    ASSERT_TRUE(wrote);
    for (std::uint32_t i = 1; i <= cfg.l1Assoc; ++i) {
        bool done = false;
        sys.l1(0).load(base + i * stride, [&] { done = true; });
        // Single-step so we can catch the PutM window mid-flight.
        while (!done)
            eq.run(eq.now() + 1);
        if (sys.l1(0).outstandingWritebacks() > 0)
            break;
    }
    ASSERT_GT(sys.l1(0).outstandingWritebacks(), 0u)
        << "eviction produced no in-flight writeback";
    ASSERT_EQ(sys.l1(0).array().find(base), nullptr);

    KindCounter kinds;
    sys.mesh().setTracer(&kinds);
    bool loaded = false;
    sys.l1(0).load(base, [&] { loaded = true; });
    eq.run();
    ASSERT_TRUE(loaded);
    EXPECT_EQ(kinds.of(MsgType::GetS), 1u);
    sys.mesh().setTracer(nullptr);

    // Another core loads the line and sees the written value.
    bool other = false;
    sys.l1(1).load(base, [&] { other = true; });
    eq.run();
    ASSERT_TRUE(other);
    const CacheLineState *line = sys.l1(1).array().find(base);
    ASSERT_NE(line, nullptr);
    std::uint64_t back;
    std::memcpy(&back, line->data.data(), 8);
    EXPECT_EQ(back, value);
}

// A line holds a control block only while it is busy:
// ctrl_blocks_live is the high-water mark of concurrently busy lines,
// and however many distinct lines were touched, none stays live once
// released.
TEST(DirectoryStatTest, CtrlBlocksLiveOnlyWhileLinesAreBusy)
{
    StatSet stats;
    Counter &live = stats.counter("dir0", "ctrl_blocks_live");
    Directory dir;
    dir.attachStats(&live);

    const Addr touched = 128 * 1024;
    for (Addr i = 0; i < touched; ++i)
        dir.acquire(i * kLineBytes,
                    [&dir, i] { dir.release(i * kLineBytes); });
    EXPECT_EQ(live.value(), 1u);
    EXPECT_EQ(dir.liveCtl(), 0u);

    // Three lines busy at once, one of them with a queued transaction.
    int queued_ran = 0;
    for (Addr line : {Addr(0x1000), Addr(0x2000), Addr(0x3000)})
        dir.acquire(line, [] {});
    dir.acquire(0x1000, [&dir, &queued_ran] {
        ++queued_ran;
        dir.release(0x1000);
    });
    EXPECT_EQ(dir.liveCtl(), 3u);
    EXPECT_EQ(live.value(), 3u);
    EXPECT_TRUE(dir.busy(0x1000));

    dir.release(0x1000);  // hands the line to the queued transaction
    EXPECT_EQ(queued_ran, 1);
    dir.release(0x2000);
    dir.release(0x3000);
    EXPECT_EQ(dir.liveCtl(), 0u);
    EXPECT_FALSE(dir.busy(0x1000));
    EXPECT_EQ(live.value(), 3u);  // high-water mark
}

// Stale PutMs, flushes and upgrades about lines the L2 no longer holds
// only read the directory; they must not leave default entries behind.
// On 4-core machines with 8 KB 2-way L2 tiles, create-on-demand
// lookups there left more entries than resident lines.
TEST(DirectoryStatTest, EntriesNeverOutnumberResidentL2Lines)
{
    for (const char *name : {"hash", "btree"}) {
        MicroParams params;
        params.entryBytes = 512;
        params.initialItems = 12;
        params.txnsPerCore = 10;
        std::unique_ptr<Workload> workload;
        if (std::string(name) == "hash")
            workload = std::make_unique<HashWorkload>(params);
        else
            workload = std::make_unique<BTreeWorkload>(params);

        SystemConfig cfg;
        cfg.numCores = 4;
        cfg.l2Tiles = 4;
        cfg.meshRows = 2;
        cfg.ausPerMc = 4;
        cfg.l2TileBytes = 8 * 1024;
        cfg.l2Assoc = 2;
        cfg.design = DesignKind::Atom;
        Runner runner(cfg, *workload, params.txnsPerCore,
                      Addr(64) * 1024 * 1024);
        runner.setUp();
        runner.run();

        std::size_t entries = 0, resident = 0;
        for (std::uint32_t t = 0; t < cfg.l2Tiles; ++t) {
            L2Tile &tile = runner.system().l2Tile(t);
            entries += tile.directory().entryCount();
            tile.array().forEachValid(
                [&resident](const CacheLineState &) { ++resident; });
        }
        EXPECT_GT(resident, 0u) << name;
        EXPECT_LE(entries, resident) << name;
    }
}

} // namespace
} // namespace atomsim
