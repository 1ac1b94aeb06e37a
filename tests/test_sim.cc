/**
 * @file
 * Unit tests for the simulation kernel: event queue, stats, RNG,
 * configuration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
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
    TickEvent ev([&] { ++fired; }, "test.tick");

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
    TickEvent near([&] { ++fired; }, "near");
    TickEvent far([&] { ++fired; }, "far");

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
        },
        "test.selftick");
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

    TickEvent near1([] {}, "near1");
    TickEvent near2([] {}, "near2");
    TickEvent far1([] {}, "far1");
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

// scheduleAt() places an event into a previously-drawn FIFO slot: it
// must run *before* same-tick events whose seqs were drawn later, even
// though it was scheduled after them (the mesh drain-event pattern).
TEST(EventQueueTest, ScheduleAtReplaysStampedFifoSlot)
{
    EventQueue eq;
    std::vector<int> order;

    const std::uint64_t early_slot = eq.allocSeq();
    eq.post(50, [&] { order.push_back(1); });
    eq.post(50, [&] { order.push_back(2); });

    TickEvent stamped([&] { order.push_back(0); }, "stamped");
    eq.scheduleAt(stamped, 50, early_slot);

    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
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
    EXPECT_EQ(cfg.robSize, 192u);
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

TEST(ConfigDeathTest, RejectsOversizedRecord)
{
    SystemConfig cfg;
    cfg.recordEntries = 8;
    EXPECT_DEATH({ cfg.validate(); }, "recordEntries");
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

// --- spill-heap deschedule (indexed heap) ------------------------------

// Descheduling from the middle of the spill heap (the powerFail
// pattern: member events parked thousands of ticks out) must keep the
// heap consistent: remaining events still run in (tick, seq) order and
// the descheduled event is rescheduleable.
TEST(EventQueueTest, DescheduleFromSpillHeapMiddle)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick base = Tick(EventQueue::kWheelBuckets) + 1000;

    std::vector<std::unique_ptr<TickEvent>> evs;
    for (int i = 0; i < 32; ++i) {
        evs.push_back(std::make_unique<TickEvent>(
            [&order, i] { order.push_back(i); }, "spill"));
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
        TickEvent doomed([&] { ++fired; }, "doomed");
        eq.schedule(doomed, base + 7);
        TickEvent other([&] { ++fired; }, "other");
        eq.schedule(other, base + 9);
        eq.deschedule(doomed);
        eq.deschedule(other);
    }  // both destroyed while unscheduled
    TickEvent keeper([&] { ++fired; }, "keeper");
    eq.schedule(keeper, base + 3);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), base + 3);
}

// --- configurable wheel width ------------------------------------------

// A narrow wheel pushes more schedules through the spill heap; the
// execution order must not change, only the spill ratio.
TEST(EventQueueTest, NarrowWheelKeepsOrderRaisesSpillRatio)
{
    EventQueue wide(4096);
    EventQueue narrow(64);
    EXPECT_EQ(wide.wheelWidth(), 4096u);
    EXPECT_EQ(narrow.wheelWidth(), 64u);

    std::vector<int> wide_order, narrow_order;
    for (auto *p : {&wide, &narrow}) {
        auto &order = p == &wide ? wide_order : narrow_order;
        for (int i = 0; i < 200; ++i)
            p->post(Tick((i * 37) % 500), [&order, i] {
                order.push_back(i);
            });
        p->run();
    }
    EXPECT_EQ(wide_order, narrow_order);
    EXPECT_EQ(wide.spillRatio(), 0.0);
    EXPECT_GT(narrow.spillRatio(), 0.5);
}

TEST(EventQueueDeathTest, RejectsNonPowerOfTwoWheel)
{
    EXPECT_DEATH({ EventQueue eq(100); }, "power of two");
}

} // namespace
} // namespace atomsim
