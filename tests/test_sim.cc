/**
 * @file
 * Unit tests for the simulation kernel: event queue, stats, RNG,
 * configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/pool.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace atomsim
{
namespace
{

TEST(EventQueueTest, ExecutesInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.post(30, [&] { order.push_back(3); });
    eq.post(10, [&] { order.push_back(1); });
    eq.post(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

// Regression for the old priority_queue kernel: events posted at one
// tick must pop in posting order (FIFO within a tick), however many
// there are.
TEST(EventQueueTest, FifoWithinATick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.post(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueueTest, SchedulingFromInsideEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.post(1, [&] {
        ++fired;
        eq.postIn(4, [&] {
            ++fired;
            EXPECT_EQ(eq.now(), 5u);
        });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, SameTickSchedulingRunsAfterCurrentEvent)
{
    EventQueue eq;
    std::vector<int> order;
    eq.post(7, [&] {
        order.push_back(1);
        eq.postIn(0, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.post(10, [&] { ++fired; });
    eq.post(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.post(t, [&] { ++count; });
    eq.runUntil([&] { return count >= 4; });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueueTest, RunUntilRespectsLimitAndAlreadyTruePredicate)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.post(t, [&] { ++count; });

    // Predicate already true: nothing executes.
    EXPECT_EQ(eq.runUntil([] { return true; }), 0u);
    EXPECT_EQ(count, 0);

    // Limit cuts the run short even though the predicate never fires.
    EXPECT_EQ(eq.runUntil([] { return false; }, 3), 3u);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(eq.pending(), 7u);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.post(Tick(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

// --- intrusive-event API ------------------------------------------------

TEST(EventQueueTest, MemberEventSchedulesAndReschedules)
{
    EventQueue eq;
    int fired = 0;
    TickEvent ev([&] { ++fired; });

    EXPECT_FALSE(ev.scheduled());
    eq.schedule(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 10u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(ev.scheduled());

    // The same object is reusable immediately.
    eq.scheduleIn(ev, 5);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueueTest, DescheduleRemovesFromWheelAndSpill)
{
    EventQueue eq;
    int fired = 0;
    TickEvent near([&] { ++fired; });
    TickEvent far([&] { ++fired; });

    eq.schedule(near, 10);  // wheel
    eq.schedule(far, Tick(EventQueue::kWheelBuckets) + 100);  // spill
    EXPECT_EQ(eq.pending(), 2u);

    eq.deschedule(near);
    eq.deschedule(far);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 0);

    // reschedule() works whether or not the event is queued.
    eq.reschedule(near, 3);
    eq.reschedule(near, 7);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueueTest, SelfReschedulingMemberEvent)
{
    EventQueue eq;
    int ticks = 0;
    TickEvent *self = nullptr;
    TickEvent ev(
        [&] {
            if (++ticks < 10)
                eq.scheduleIn(*self, 100);
        });
    self = &ev;
    eq.schedule(ev, 100);
    eq.run();
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(eq.now(), 1000u);
}

// --- calendar-queue internals ------------------------------------------

// Events beyond the wheel horizon spill to the far-future heap and must
// still run in (tick, insertion-order) order when the horizon reaches
// them.
TEST(EventQueueTest, FarFutureEventsCrossTheHorizon)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = Tick(EventQueue::kWheelBuckets) * 3 + 17;
    eq.post(far, [&] { order.push_back(1); });
    eq.post(far, [&] { order.push_back(2); });
    eq.post(far + 1, [&] { order.push_back(3); });
    eq.post(1, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), far + 1);
}

// FIFO within one tick must hold even when the earlier event sat in the
// spill heap (scheduled while the tick was out of the horizon) and the
// later one went straight into the wheel (scheduled after now()
// advanced). The migration path must keep the seq order.
TEST(EventQueueTest, FifoAcrossWheelAndSpill)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick target = Tick(EventQueue::kWheelBuckets) + 500;

    // Out of horizon at schedule time -> spill heap.
    eq.post(target, [&] { order.push_back(1); });
    // Advance now() so `target` is inside the horizon, then schedule
    // the second event for the same tick -> wheel bucket.
    eq.post(1000, [&] {
        eq.post(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Regression: run(limit) jumps now() to the limit; spill events the
// jump brought inside the horizon must migrate into the wheel, or a
// later schedule into the same window executes ahead of them (and the
// stale spill event fires a whole wheel-wrap late).
TEST(EventQueueTest, RunLimitJumpKeepsSpillOrdering)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick a_tick = Tick(EventQueue::kWheelBuckets) * 2 + 1808;
    eq.post(a_tick, [&] {
        order.push_back(1);
        EXPECT_EQ(eq.now(), a_tick);
    });

    // Jump now() to within a horizon of A without executing anything.
    eq.run(a_tick - 1000);
    EXPECT_EQ(eq.now(), a_tick - 1000);

    // B lands in the wheel; A (scheduled first) must still run first.
    eq.post(a_tick + 500, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), a_tick + 500);
}

// The wheel/spill insert counters drive the spill-ratio tuning stat
// printed by bench/kernel_events.cc.
TEST(EventQueueTest, SpillRatioStatCountsInserts)
{
    EventQueue eq;
    EXPECT_EQ(eq.spillRatio(), 0.0);

    TickEvent near1([] {});
    TickEvent near2([] {});
    TickEvent far1([] {});
    eq.schedule(near1, 10);
    eq.schedule(near2, EventQueue::kWheelBuckets - 1);
    eq.schedule(far1, Tick(EventQueue::kWheelBuckets) + 10);

    EXPECT_EQ(eq.wheelInserts(), 2u);
    EXPECT_EQ(eq.spillInserts(), 1u);
    EXPECT_DOUBLE_EQ(eq.spillRatio(), 1.0 / 3.0);

    // Migration from the spill heap into the wheel is not a fresh
    // insert; the ratio reflects schedule-time placement only.
    eq.run();
    EXPECT_EQ(eq.wheelInserts(), 2u);
    EXPECT_EQ(eq.spillInserts(), 1u);
}

// --- determinism --------------------------------------------------------

namespace
{

/** A deterministic pseudo-random scheduling storm; returns the
 * execution order of event ids. */
std::vector<std::uint32_t>
schedulingStorm(std::uint64_t seed)
{
    EventQueue eq;
    std::vector<std::uint32_t> order;
    std::uint64_t rng = seed;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::uint32_t id = 0;
    std::function<void(std::uint32_t)> fire = [&](std::uint32_t my_id) {
        order.push_back(my_id);
        // Each event spawns 0..2 children at 0..~5000 ticks ahead,
        // exercising same-tick FIFO, the wheel and the spill heap.
        const std::uint32_t kids = next() % 3;
        for (std::uint32_t k = 0; k < kids && id < 2000; ++k) {
            const Cycles delay = next() % 5000;
            const std::uint32_t kid_id = id++;
            eq.postIn(delay, [&fire, kid_id] { fire(kid_id); });
        }
    };
    for (int i = 0; i < 16; ++i) {
        const std::uint32_t root = id++;
        eq.post(next() % 64, [&fire, root] { fire(root); });
    }
    eq.run();
    return order;
}

} // namespace

TEST(EventQueueTest, DeterministicForSeed)
{
    const auto a = schedulingStorm(12345);
    const auto b = schedulingStorm(12345);
    EXPECT_GT(a.size(), 100u);
    EXPECT_EQ(a, b);

    const auto c = schedulingStorm(999);
    EXPECT_NE(a, c);  // different seed, different storm
}

// --- event pool ---------------------------------------------------------

// Under steady-state churn the pool must stop growing: the number of
// FuncEvents ever allocated stays at the in-flight high-water mark.
TEST(EventQueueTest, PoolReuseUnderChurn)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 50; ++i)
            eq.postIn(Cycles(1 + i), [&] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 5000u);
    // 50 in flight at peak; allow slack but forbid per-event growth.
    EXPECT_LE(eq.poolAllocated(), 64u);
    EXPECT_EQ(eq.poolFree(), eq.poolAllocated());
}

TEST(EventQueueTest, PoolReleasesBeforeCallbackRuns)
{
    EventQueue eq;
    int fired = 0;
    // The callback posts again; the pool node freed by the firing event
    // must be reusable right away, so two chained posts need one node.
    eq.post(1, [&] {
        ++fired;
        eq.postIn(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.poolAllocated(), 1u);
}

// post()/postIn() build the callable in the pooled node itself: a
// lambda moves once into the node and once out of it when the event
// runs, however many layers forwarded it on the way in.
TEST(EventQueueTest, PostConstructsTheCallbackInPlace)
{
    struct MoveCounter
    {
        int *moves;
        int *calls;

        MoveCounter(int *m, int *c) : moves(m), calls(c) {}
        MoveCounter(MoveCounter &&o) noexcept
            : moves(o.moves), calls(o.calls)
        {
            ++*moves;
        }
        MoveCounter(const MoveCounter &) = delete;

        void operator()() { ++*calls; }
    };

    EventQueue eq;
    int moves = 0;
    int calls = 0;
    eq.post(3, MoveCounter(&moves, &calls));
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_LE(moves, 2);

    moves = 0;
    eq.postIn(3, MoveCounter(&moves, &calls));
    eq.run();
    EXPECT_EQ(calls, 2);
    EXPECT_LE(moves, 2);
}

// clear() is how a power failure ends the run: every pending event is
// dropped unrun, member events (wheel and spill alike) come back
// unscheduled and reschedulable, pooled nodes destroy their callbacks
// and return to the pool, and the counters a crashed run still
// reports are left as they were.
TEST(EventQueueTest, ClearDropsPendingEventsAndKeepsCounters)
{
    EventQueue eq;
    const Tick far = EventQueue::kWheelBuckets + 100;
    int ran = 0;
    eq.postIn(1, [&ran] { ++ran; });
    eq.run();
    ASSERT_EQ(ran, 1);

    TickEvent near_ev([&ran] { ++ran; });
    TickEvent far_ev([&ran] { ++ran; });
    eq.scheduleIn(near_ev, 10);
    eq.scheduleIn(far_ev, far);
    auto token = std::make_shared<int>(0);
    eq.postIn(5, [&ran, token] { ++ran; });
    eq.postIn(far + 1, [&ran] { ++ran; });
    eq.postIn(7, [&ran] { ++ran; });
    ASSERT_GT(eq.spillInserts(), 0u);
    const Tick now = eq.now();
    const std::uint64_t executed = eq.executed();
    const std::uint64_t wheel = eq.wheelInserts();
    const std::uint64_t spill = eq.spillInserts();
    const std::size_t nodes = eq.poolAllocated();

    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(near_ev.scheduled());
    EXPECT_FALSE(far_ev.scheduled());
    EXPECT_EQ(eq.poolFree(), nodes);
    EXPECT_EQ(token.use_count(), 1);  // the dropped callback is gone
    EXPECT_EQ(eq.now(), now);
    EXPECT_EQ(eq.executed(), executed);
    EXPECT_EQ(eq.wheelInserts(), wheel);
    EXPECT_EQ(eq.spillInserts(), spill);
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(ran, 1);

    // Member events reschedule, and the pool reuses its nodes.
    eq.scheduleIn(near_ev, 10);
    eq.scheduleIn(far_ev, far);
    for (std::size_t i = 0; i < nodes; ++i)
        eq.postIn(5, [&ran] { ++ran; });
    EXPECT_EQ(eq.poolAllocated(), nodes);
    EXPECT_EQ(eq.run(), 2 + nodes);
    EXPECT_EQ(ran, int(3 + nodes));
}

TEST(StatSetTest, CountersAccumulateAndReset)
{
    StatSet stats;
    Counter &c = stats.counter("core0", "ops");
    c.inc();
    c.inc(9);
    EXPECT_EQ(stats.value("core0", "ops"), 10u);
    stats.resetAll();
    EXPECT_EQ(stats.value("core0", "ops"), 0u);
}

TEST(StatSetTest, SumAcrossGroups)
{
    StatSet stats;
    stats.counter("core0", "txn").inc(3);
    stats.counter("core1", "txn").inc(4);
    stats.counter("mc0", "txn").inc(100);
    EXPECT_EQ(stats.sum("core", "txn"), 7u);
    EXPECT_EQ(stats.sum("", "txn"), 107u);
}

TEST(StatSetTest, MissingCounterReadsZero)
{
    StatSet stats;
    EXPECT_EQ(stats.value("nope", "none"), 0u);
}

TEST(StatSetTest, DumpSorted)
{
    StatSet stats;
    stats.counter("b", "y").inc(2);
    stats.counter("a", "x").inc(1);
    const auto dump = stats.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a.x");
    EXPECT_EQ(dump[1].first, "b.y");
}

TEST(RandomTest, DeterministicForSeed)
{
    Random a(123);
    Random b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    Random a(1);
    Random b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(RandomTest, BelowStaysInRange)
{
    Random rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(RandomTest, RangeInclusive)
{
    Random rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo = saw_lo || v == 5;
        saw_hi = saw_hi || v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, UnitInHalfOpenInterval)
{
    Random rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.unit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(ConfigTest, DefaultsMatchTableOne)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.numCores, 32u);
    EXPECT_EQ(cfg.sqEntries, 32u);
    EXPECT_EQ(cfg.l1SizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1Assoc, 4u);
    EXPECT_EQ(cfg.l1Latency, 3u);
    EXPECT_EQ(cfg.l2Tiles, 32u);
    EXPECT_EQ(cfg.l2TileBytes, 1024u * 1024);
    EXPECT_EQ(cfg.l2Assoc, 16u);
    EXPECT_EQ(cfg.l2Latency, 30u);
    EXPECT_EQ(cfg.numMemCtrls, 4u);
    EXPECT_EQ(cfg.nvmReadLatency, 240u);
    EXPECT_EQ(cfg.nvmWriteLatency, 360u);
    EXPECT_EQ(cfg.meshRows, 4u);
    EXPECT_EQ(cfg.mshrs, 32u);
    cfg.validate();  // must not die
}

TEST(ConfigTest, LineTransferMatchesBandwidth)
{
    SystemConfig cfg;
    // 5.3 GB/s at 2 GHz = 2.65 B/cycle -> 64 B needs ceil(24.15) = 25.
    EXPECT_EQ(cfg.lineTransferCycles(), 25u);
}

TEST(ConfigTest, MeshColsDerived)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.meshCols(), 8u);  // 32 tiles / 4 rows
}

TEST(ConfigTest, DesignNamesRoundTrip)
{
    for (auto kind :
         {DesignKind::Base, DesignKind::Atom, DesignKind::AtomOpt,
          DesignKind::NonAtomic, DesignKind::Redo}) {
        EXPECT_EQ(designFromName(designName(kind)), kind);
    }
}

TEST(ConfigDeathTest, RejectsNonPowerOfTwoMcs)
{
    SystemConfig cfg;
    cfg.numMemCtrls = 3;
    EXPECT_DEATH({ cfg.validate(); }, "power of two");
}

// validate() must reject each zero before using it: the size checks
// divide by the associativities, and a cache without MSHRs deadlocks
// on its first miss.
TEST(ConfigDeathTest, RejectsZeroL1Assoc)
{
    SystemConfig cfg;
    cfg.l1Assoc = 0;
    EXPECT_DEATH({ cfg.validate(); }, "l1Assoc must be > 0");
}

TEST(ConfigDeathTest, RejectsZeroL2Assoc)
{
    SystemConfig cfg;
    cfg.l2Assoc = 0;
    EXPECT_DEATH({ cfg.validate(); }, "l2Assoc must be > 0");
}

TEST(ConfigDeathTest, RejectsZeroMshrs)
{
    SystemConfig cfg;
    cfg.mshrs = 0;
    EXPECT_DEATH({ cfg.validate(); }, "mshrs must be > 0");
}

// CacheArray masks line numbers into set indices: a geometry whose set
// count is not a power of two used to pass validate() and panic in the
// CacheArray constructor, and a zero-size level built a machine that
// segfaulted on its first load.
TEST(ConfigDeathTest, RejectsCacheSetsThatAreNotAPowerOfTwo)
{
    SystemConfig cfg;
    cfg.l2TileBytes = 96 * 1024;  // 96 sets at 16 ways
    EXPECT_DEATH({ cfg.validate(); }, "L2 tile set count \\(96\\)");
    cfg = SystemConfig{};
    cfg.l1SizeBytes = 48 * 1024;  // 192 sets at 4 ways
    EXPECT_DEATH({ cfg.validate(); }, "L1 set count \\(192\\)");
    cfg = SystemConfig{};
    cfg.l1SizeBytes = 0;
    EXPECT_DEATH({ cfg.validate(); }, "L1 set count \\(0\\)");
    cfg = SystemConfig{};
    cfg.l2TileBytes = 0;
    EXPECT_DEATH({ cfg.validate(); }, "L2 tile set count \\(0\\)");

    // The Table-I machine, both mesh presets and the crash campaign's
    // L2 shapes (KB, ways) still validate.
    SystemConfig{}.validate();
    SystemConfig::makeMeshPreset(256).validate();
    SystemConfig::makeMeshPreset(1024).validate();
    const std::uint32_t shapes[][2] = {{4, 2}, {8, 2}, {16, 2}, {16, 4}};
    for (const auto &shape : shapes) {
        cfg = SystemConfig{};
        cfg.l2TileBytes = shape[0] * 1024;
        cfg.l2Assoc = shape[1];
        cfg.validate();
    }
}

// The ADR flush writes 16 + ausPerMc x (ceil(bucketsPerMc / 8) + 20)
// bytes into each controller's one-page ADR region; a config that
// overflows it must die in validate(), not at its first powerFail().
// At the default 32 AUSes, 856 buckets is the largest count that fits.
TEST(ConfigDeathTest, RejectsAdrStateLargerThanAPage)
{
    SystemConfig cfg;
    ASSERT_EQ(cfg.ausPerMc, 32u);
    cfg.bucketsPerMc = 856;
    EXPECT_EQ(cfg.adrStateBytes(), 4080u);
    cfg.validate();
    cfg.bucketsPerMc = 857;
    EXPECT_EQ(cfg.adrStateBytes(), 4112u);
    EXPECT_DEATH({ cfg.validate(); }, "exceeds the 4096-byte ADR page");
    // Table IV's TPC-C shape: 2048 buckets at 8 AUSes is 2224 bytes.
    cfg.ausPerMc = 8;
    cfg.bucketsPerMc = 2048;
    EXPECT_EQ(cfg.adrStateBytes(), 2224u);
    cfg.validate();
}

// REDO's log slots keep the core in 6 bits and a commit's controller
// mask in 8 bits, so validate() must refuse a REDO machine wider than
// that (a 128-core run otherwise recovers an inconsistent queue, and a
// 16-MC run re-applies only part of its committed log). The widest
// encodable machine still validates.
TEST(ConfigDeathTest, RejectsRedoBeyondItsLogFormat)
{
    SystemConfig cfg;
    cfg.design = DesignKind::Redo;
    cfg.numCores = 64;
    cfg.numMemCtrls = 8;
    cfg.validate();

    cfg.numCores = 65;
    EXPECT_DEATH({ cfg.validate(); }, "at most 64 cores");

    cfg.numCores = 32;
    cfg.numMemCtrls = 16;
    EXPECT_DEATH({ cfg.validate(); }, "at most 8 memory controllers");
}

// The memory-mode DRAM cache is a CacheArray, which masks line numbers
// into set indices like the L1 and L2: 3 MB at 8 ways (6144 sets) used
// to validate and run on a modulo index. Sizes whose set count is a
// power of two still validate, and a size that is no multiple of a set
// keeps its own message.
TEST(ConfigDeathTest, RejectsNonPowerOfTwoDramSets)
{
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::MemoryMode;
    cfg.dramCacheMBPerMc = 3;
    EXPECT_DEATH({ cfg.validate(); },
                 "DRAM cache set count \\(6144\\) must be a power of two");
    cfg.dramCacheAssoc = 3;
    cfg.dramCacheMBPerMc = 1;
    EXPECT_DEATH({ cfg.validate(); }, "multiple of assoc \\* line size");

    for (const std::uint32_t mb : {1u, 2u, 4u, 16u}) {
        cfg = SystemConfig{};
        cfg.hybridMode = HybridMode::MemoryMode;
        cfg.dramCacheMBPerMc = mb;
        cfg.validate();
    }
}

// --- spill-heap deschedule (indexed heap) ------------------------------

// Descheduling from the middle of the spill heap (member events parked
// thousands of ticks out, then re-armed) must keep the heap
// consistent: remaining events still run in (tick, seq) order and the
// descheduled event is rescheduleable.
TEST(EventQueueTest, DescheduleFromSpillHeapMiddle)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick base = Tick(EventQueue::kWheelBuckets) + 1000;

    std::vector<std::unique_ptr<TickEvent>> evs;
    for (int i = 0; i < 32; ++i) {
        evs.push_back(std::make_unique<TickEvent>(
            [&order, i] { order.push_back(i); }));
        // Interleaved ticks so heap order != insertion order.
        eq.schedule(*evs.back(), base + Tick((i * 7) % 32));
    }
    // Remove every third event, from the middle of the heap.
    for (int i = 0; i < 32; i += 3)
        eq.deschedule(*evs[std::size_t(i)]);
    // One of them comes back at a different (earlier spill) tick.
    eq.schedule(*evs[3], base + 200);

    eq.run();

    std::vector<int> expect;
    for (int t = 0; t < 32; ++t) {
        // order of execution follows tick = base + (i*7)%32
        for (int i = 0; i < 32; ++i) {
            if (i % 3 == 0)
                continue;
            if ((i * 7) % 32 == t)
                expect.push_back(i);
        }
    }
    expect.push_back(3);  // rescheduled to base + 200
    EXPECT_EQ(order, expect);
}

// A descheduled-from-spill event must not leave stale heap state
// behind: destroying it afterwards (the Event dtor path) and churning
// the heap further must stay consistent.
TEST(EventQueueTest, SpillHeapSurvivesDescheduleAndDestroy)
{
    EventQueue eq;
    int fired = 0;
    const Tick base = Tick(EventQueue::kWheelBuckets) + 50;
    {
        TickEvent doomed([&] { ++fired; });
        eq.schedule(doomed, base + 7);
        TickEvent other([&] { ++fired; });
        eq.schedule(other, base + 9);
        eq.deschedule(doomed);
        eq.deschedule(other);
    }  // both destroyed while unscheduled
    TickEvent keeper([&] { ++fired; });
    eq.schedule(keeper, base + 3);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), base + 3);
}

// --- wheel and spill together -----------------------------------------

// Posts and member events over more than three wheel widths, many per
// tick, with follow-ups posted from inside events and member events
// moved across the horizon before they fire. Whichever level an event
// waited in, execution follows (tick, schedule order); in particular,
// events migrating from the spill are appended to their bucket ahead
// of everything scheduled straight into it later.
TEST(EventQueueTest, WheelAndSpillRunInTickThenScheduleOrder)
{
    constexpr Tick kGrid = 256;  // every tick is a multiple: collisions
    constexpr int kMembers = 64;
    constexpr int kPosts = 256;
    EventQueue eq;
    Random rng(2024);

    // Per event id: (tick, schedule order) of its last schedule.
    std::map<int, std::pair<Tick, std::uint64_t>> key;
    std::uint64_t schedules = 0;
    std::vector<int> order;
    const auto note = [&](int id, Tick when) {
        key[id] = {when, schedules++};
    };

    std::vector<std::unique_ptr<TickEvent>> members;
    for (int id = 0; id < kMembers; ++id) {
        members.push_back(std::make_unique<TickEvent>(
            [&order, id] { order.push_back(id); }));
        const Tick when = Tick(rng.below(56)) * kGrid;  // 3.5 widths
        eq.schedule(*members.back(), when);
        note(id, when);
    }

    int next_id = kMembers + kPosts;
    for (int id = kMembers; id < kMembers + kPosts; ++id) {
        const Tick when = Tick(rng.below(56)) * kGrid;
        eq.post(when, [&, id] {
            order.push_back(id);
            if (id % 4 != 0)
                return;
            // A follow-up up to ~1.2 widths out: into the wheel or
            // the spill, often onto a tick that already holds events.
            const int child = next_id++;
            const Tick at = eq.now() + Tick(rng.below(20)) * kGrid;
            eq.post(at, [&order, child] { order.push_back(child); });
            note(child, at);
        });
        note(id, when);
    }

    // Mid-run, move every third member event that has yet to fire to
    // a tick up to ~2.4 widths out, across the horizon either way.
    const Tick move_at = EventQueue::kWheelBuckets + 2 * kGrid;
    int moved = 0;
    eq.post(move_at, [&] {
        for (int id = 0; id < kMembers; id += 3) {
            TickEvent &ev = *members[std::size_t(id)];
            if (!ev.scheduled())
                continue;
            eq.deschedule(ev);
            const Tick when = eq.now() + Tick(rng.below(40)) * kGrid;
            eq.schedule(ev, when);
            note(id, when);
            ++moved;
        }
    });

    eq.run();

    std::vector<std::tuple<Tick, std::uint64_t, int>> ref;
    for (const auto &[id, k] : key)
        ref.emplace_back(k.first, k.second, id);
    std::sort(ref.begin(), ref.end());
    std::vector<int> expect;
    for (const auto &r : ref)
        expect.push_back(std::get<2>(r));

    EXPECT_EQ(order, expect);
    EXPECT_GT(moved, 0);
    EXPECT_GT(next_id, kMembers + kPosts);
    EXPECT_GT(eq.spillRatio(), 0.0);
}

// --- IntrusiveFifo ----------------------------------------------------

struct FifoNode
{
    FifoNode *next = nullptr;
    int id = 0;
};

using NodeFifo = IntrusiveFifo<FifoNode>;

/** The ids on @p fifo, front to back. */
std::vector<int>
fifoIds(const NodeFifo &fifo)
{
    std::vector<int> ids;
    for (FifoNode *n = fifo.front(); n; n = NodeFifo::next(n))
        ids.push_back(n->id);
    return ids;
}

/** @p n nodes with ids 0 .. n-1. */
std::vector<FifoNode>
fifoNodes(int n)
{
    std::vector<FifoNode> nodes(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        nodes[std::size_t(i)].id = i;
    return nodes;
}

TEST(IntrusiveFifoTest, PushBackPushFrontAndPopFrontOrder)
{
    auto nodes = fifoNodes(4);
    NodeFifo fifo;
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.front(), nullptr);
    fifo.push_back(&nodes[1]);
    fifo.push_back(&nodes[2]);
    fifo.push_front(&nodes[0]);
    fifo.push_back(&nodes[3]);
    EXPECT_EQ(fifoIds(fifo), (std::vector<int>{0, 1, 2, 3}));
    for (int i = 0; i < 4; ++i) {
        FifoNode *n = fifo.pop_front();
        EXPECT_EQ(n->id, i);
        EXPECT_EQ(n->next, nullptr);
    }
    EXPECT_TRUE(fifo.empty());
    // push_front onto an empty FIFO sets the back too.
    fifo.push_front(&nodes[2]);
    fifo.push_back(&nodes[3]);
    EXPECT_EQ(fifoIds(fifo), (std::vector<int>{2, 3}));
}

TEST(IntrusiveFifoTest, RemoveHeadMiddleAndTailThenAppend)
{
    auto nodes = fifoNodes(7);
    NodeFifo fifo;
    for (int i = 0; i < 5; ++i)
        fifo.push_back(&nodes[std::size_t(i)]);
    EXPECT_TRUE(fifo.remove(&nodes[0]));  // head
    EXPECT_TRUE(fifo.remove(&nodes[2]));  // middle
    EXPECT_TRUE(fifo.remove(&nodes[4]));  // tail
    EXPECT_EQ(nodes[4].next, nullptr);
    EXPECT_FALSE(fifo.remove(&nodes[4]));  // no longer queued
    EXPECT_EQ(fifoIds(fifo), (std::vector<int>{1, 3}));
    // The back moved to node 3: an append must follow it.
    fifo.push_back(&nodes[5]);
    EXPECT_EQ(fifoIds(fifo), (std::vector<int>{1, 3, 5}));

    // Removing the only node empties the FIFO, front and back.
    NodeFifo one;
    one.push_back(&nodes[6]);
    EXPECT_TRUE(one.remove(&nodes[6]));
    EXPECT_TRUE(one.empty());
    one.push_back(&nodes[6]);
    EXPECT_EQ(fifoIds(one), (std::vector<int>{6}));
}

TEST(IntrusiveFifoTest, FindReturnsTheOldestMatch)
{
    auto nodes = fifoNodes(6);
    NodeFifo fifo;
    for (auto &n : nodes)
        fifo.push_back(&n);
    const auto odd = [](const FifoNode &n) { return n.id % 2 == 1; };
    EXPECT_EQ(fifo.find(odd), &nodes[1]);
    EXPECT_EQ(fifo.find([](const FifoNode &n) { return n.id > 9; }),
              nullptr);
    fifo.remove(&nodes[1]);
    EXPECT_EQ(fifo.find(odd), &nodes[3]);
}

TEST(IntrusiveFifoTest, TakeDetachesEverythingAndLaterPushesStay)
{
    auto nodes = fifoNodes(6);
    NodeFifo fifo;
    for (int i = 0; i < 3; ++i)
        fifo.push_back(&nodes[std::size_t(i)]);
    NodeFifo taken = fifo.take();
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.front(), nullptr);

    // Walk the taken list the way a wake-up does; each visit queues a
    // new node on the source, which must wait there.
    std::vector<int> walked;
    int fresh = 3;
    while (!taken.empty()) {
        walked.push_back(taken.pop_front()->id);
        fifo.push_back(&nodes[std::size_t(fresh++)]);
    }
    EXPECT_EQ(walked, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(fifoIds(fifo), (std::vector<int>{3, 4, 5}));
}

// Seeded differential run against std::deque: every operation the
// queues use, on a small node population so removes, finds and
// re-pushes keep hitting the front, the back and the middle.
TEST(IntrusiveFifoTest, MatchesDequeUnderRandomOps)
{
    constexpr int kNodes = 48;
    auto nodes = fifoNodes(kNodes);
    std::vector<bool> queued(kNodes, false);
    NodeFifo fifo;
    std::deque<FifoNode *> ref;
    Random rng(20261018);
    for (int op = 0; op < 100000; ++op) {
        FifoNode *n = &nodes[std::size_t(rng.below(kNodes))];
        switch (rng.below(6)) {
          case 0:
          case 1:
            if (!queued[std::size_t(n->id)]) {
                fifo.push_back(n);
                ref.push_back(n);
                queued[std::size_t(n->id)] = true;
            }
            break;
          case 2:
            if (!queued[std::size_t(n->id)]) {
                fifo.push_front(n);
                ref.push_front(n);
                queued[std::size_t(n->id)] = true;
            }
            break;
          case 3:
            if (!ref.empty()) {
                ASSERT_EQ(fifo.pop_front(), ref.front()) << "op " << op;
                queued[std::size_t(ref.front()->id)] = false;
                ref.pop_front();
            }
            break;
          case 4: {
            const auto it = std::find(ref.begin(), ref.end(), n);
            ASSERT_EQ(fifo.remove(n), it != ref.end()) << "op " << op;
            if (it != ref.end()) {
                ref.erase(it);
                queued[std::size_t(n->id)] = false;
            }
            break;
          }
          default: {
            const int id = n->id;
            const auto match = [id](const FifoNode &x) {
                return x.id >= id;
            };
            const auto it = std::find_if(
                ref.begin(), ref.end(),
                [&match](const FifoNode *x) { return match(*x); });
            ASSERT_EQ(fifo.find(match), it == ref.end() ? nullptr : *it)
                << "op " << op;
            if (rng.below(64) == 0) {
                // Detach and re-queue everything, order kept.
                NodeFifo taken = fifo.take();
                ASSERT_TRUE(fifo.empty());
                while (!taken.empty())
                    fifo.push_back(taken.pop_front());
            }
          }
        }
        ASSERT_EQ(fifo.empty(), ref.empty()) << "op " << op;
        ASSERT_EQ(fifo.front(), ref.empty() ? nullptr : ref.front())
            << "op " << op;
        std::vector<int> expect;
        for (const FifoNode *x : ref)
            expect.push_back(x->id);
        ASSERT_EQ(fifoIds(fifo), expect) << "op " << op;
    }
}

// --- LineMap -----------------------------------------------------------

/** Home slot of @p key in a LineMap of @p capacity slots: the map's
 * Fibonacci hash, restated so a test can aim keys at chosen slots. */
std::size_t
lineMapHome(Addr key, std::size_t capacity)
{
    const unsigned bits = unsigned(__builtin_ctzll(capacity));
    return std::size_t((key * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

/** The first @p n line addresses whose home is @p slot. */
std::vector<Addr>
keysHomedAt(std::size_t slot, std::size_t capacity, std::size_t n)
{
    std::vector<Addr> keys;
    for (Addr line = 0; keys.size() < n; line += kLineBytes) {
        if (lineMapHome(line, capacity) == slot)
            keys.push_back(line);
    }
    return keys;
}

/** The map's keys in slot order (forEach walks the slots in order). */
std::vector<Addr>
slotOrder(const LineMap<int> &map)
{
    std::vector<Addr> keys;
    map.forEach([&keys](Addr key, int) { keys.push_back(key); });
    return keys;
}

TEST(LineMapTest, ProbeChainsWrapAroundTheTableEnd)
{
    LineMap<int> map;
    map[0] = 0;  // the first insert sizes the table
    map.erase(0);
    const std::size_t cap = map.capacity();
    ASSERT_EQ(cap, 16u);

    // Three keys homed at the last slot: their chain runs 15, 0, 1.
    const std::vector<Addr> k = keysHomedAt(cap - 1, cap, 3);
    for (int i = 0; i < 3; ++i)
        map[k[i]] = i + 1;
    EXPECT_EQ(slotOrder(map), (std::vector<Addr>{k[1], k[2], k[0]}));
    for (int i = 0; i < 3; ++i) {
        ASSERT_NE(map.find(k[i]), nullptr);
        EXPECT_EQ(*map.find(k[i]), i + 1);
    }

    // Erasing the head shifts both wrapped members back across the end.
    EXPECT_TRUE(map.erase(k[0]));
    EXPECT_EQ(slotOrder(map), (std::vector<Addr>{k[2], k[1]}));
    EXPECT_EQ(map.find(k[0]), nullptr);
    EXPECT_EQ(*map.find(k[1]), 2);
    EXPECT_EQ(*map.find(k[2]), 3);

    // A key homed at slot 0 joins the chain at slot 1, and shifts back
    // to its home -- never past it -- as the chain ahead empties.
    const Addr zero = keysHomedAt(0, cap, 1)[0];
    map[zero] = 4;
    EXPECT_EQ(slotOrder(map), (std::vector<Addr>{k[2], zero, k[1]}));
    EXPECT_TRUE(map.erase(k[1]));
    EXPECT_EQ(slotOrder(map), (std::vector<Addr>{zero, k[2]}));
    EXPECT_TRUE(map.erase(k[2]));
    EXPECT_EQ(slotOrder(map), (std::vector<Addr>{zero}));
    EXPECT_EQ(*map.find(zero), 4);
    EXPECT_FALSE(map.erase(k[2]));
    EXPECT_EQ(map.size(), 1u);
}

TEST(LineMapTest, GrowthKeepsEveryEntryAndClearKeepsCapacity)
{
    LineMap<std::uint64_t> map;
    const Addr n = 10000;
    std::size_t cap = 0;
    int grows = 0;
    for (Addr i = 0; i < n; ++i) {
        map[i * kLineBytes] = i;
        if (map.capacity() != cap) {
            ++grows;
            cap = map.capacity();
        }
    }
    EXPECT_EQ(map.size(), n);
    EXPECT_GE(map.capacity(), 2 * n);  // never more than half full
    EXPECT_GT(grows, 5);
    for (Addr i = 0; i < n; ++i) {
        const std::uint64_t *v = map.find(i * kLineBytes);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i);
    }

    for (Addr i = 0; i < n; i += 2)
        EXPECT_TRUE(map.erase(i * kLineBytes));
    EXPECT_EQ(map.size(), n / 2);
    for (Addr i = 0; i < n; ++i) {
        const std::uint64_t *v = map.find(i * kLineBytes);
        if (i % 2 == 0) {
            EXPECT_EQ(v, nullptr);
        } else {
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, i);
        }
    }

    cap = map.capacity();
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(kLineBytes), nullptr);
    map[kLineBytes] = 7;
    EXPECT_EQ(*map.find(kLineBytes), 7u);
    EXPECT_EQ(map.capacity(), cap);
}

TEST(LineMapTest, ForEachVisitsEachLiveKeyOnce)
{
    LineMap<int> map;
    for (Addr i = 0; i < 1000; ++i)
        map[i * kLineBytes] = int(i);
    for (Addr i = 0; i < 1000; i += 3)
        map.erase(i * kLineBytes);

    std::map<Addr, int> visits;
    map.forEach([&visits](Addr key, int &value) {
        ++visits[key];
        EXPECT_EQ(Addr(value) * kLineBytes, key);
    });
    EXPECT_EQ(visits.size(), map.size());
    for (const auto &[key, n] : visits) {
        EXPECT_EQ(n, 1);
        EXPECT_NE((key / kLineBytes) % 3, 0u);
    }
}

// Differential test against std::unordered_map. The key space is
// small, so the table stays near half full and erases keep shifting
// long probe chains.
TEST(LineMapTest, MatchesUnorderedMapUnderRandomChurn)
{
    LineMap<std::uint64_t> map;
    std::unordered_map<Addr, std::uint64_t> ref;
    Random rng(20261016);
    for (int op = 0; op < 100000; ++op) {
        const Addr key = rng.below(300) * kLineBytes;
        switch (rng.below(3)) {
          case 0: {
            const std::uint64_t value = rng.next();
            map[key] = value;
            ref[key] = value;
            break;
          }
          case 1:
            ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "op " << op;
            break;
          default: {
            const std::uint64_t *v = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << op;
            }
          }
        }
        ASSERT_EQ(map.size(), ref.size()) << "op " << op;
    }
    std::size_t visited = 0;
    map.forEach([&](Addr key, std::uint64_t value) {
        ++visited;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(it->second, value);
    });
    EXPECT_EQ(visited, ref.size());
}

} // namespace
} // namespace atomsim
