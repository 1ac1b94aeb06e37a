/**
 * @file
 * Unit tests for the core model: store queue back-pressure and stats,
 * op execution, and the design layer's atomic-region protocol.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace atomsim
{
namespace
{

SystemConfig
tinyConfig(DesignKind design, std::uint32_t sq_entries = 32)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.l2Tiles = 2;
    cfg.meshRows = 1;
    cfg.ausPerMc = 2;
    cfg.sqEntries = sq_entries;
    cfg.design = design;
    return cfg;
}

/** Hands out a fixed list of transactions per core. */
class ScriptedSource : public TransactionSource
{
  public:
    std::optional<Transaction>
    next(CoreId core) override
    {
        if (core >= scripts.size() || at[core] >= scripts[core].size())
            return std::nullopt;
        return scripts[core][at[core]++];
    }

    std::vector<std::vector<Transaction>> scripts{2};
    std::vector<std::size_t> at = std::vector<std::size_t>(2, 0);
};

Transaction
makeTxn(Addr base, std::uint32_t n_stores, bool atomic)
{
    Transaction txn;
    if (atomic)
        txn.ops.push_back(MemOp::marker(OpKind::AtomicBegin));
    for (std::uint32_t i = 0; i < n_stores; ++i) {
        const std::uint64_t value = i;
        txn.ops.push_back(MemOp::store(base + i * 8, &value, 8));
        if (atomic) {
            const Addr line = lineAlign(base + i * 8);
            if (txn.modifiedLines.empty() ||
                txn.modifiedLines.back() != line) {
                txn.modifiedLines.push_back(line);
            }
        }
    }
    if (atomic)
        txn.ops.push_back(MemOp::marker(OpKind::AtomicEnd));
    return txn;
}

TEST(CoreTest, ExecutesScriptedTransactions)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    source.scripts[0].push_back(makeTxn(0x10000, 4, true));
    source.scripts[0].push_back(makeTxn(0x20000, 4, true));

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    EXPECT_TRUE(sys.core(0).done());
    EXPECT_EQ(sys.core(0).committed(), 2u);
    EXPECT_EQ(sys.core(1).committed(), 0u);
    // The flushed data must be durable.
    EXPECT_EQ(sys.nvmImage().load64(0x10000 + 8), 1u);
}

TEST(CoreTest, LoadsBlockStoresDoNot)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    // Loads to distinct cold lines: each blocks for the full miss.
    Transaction loads;
    for (int i = 0; i < 4; ++i)
        loads.ops.push_back(MemOp::load(0x30000 + Addr(i) * 4096, 8));
    source.scripts[0].push_back(loads);
    source.scripts[1].push_back(makeTxn(0x50000, 4, false));

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    // Core 1 (stores only) finishes long before core 0 (cold loads):
    // stores retire from the SQ in the background.
    const auto &stats = sys.stats();
    EXPECT_EQ(stats.value("core0", "ops"), 4u);
    EXPECT_GT(stats.value("core0", "load_stall_cycles"), 4u * 240u);
}

TEST(CoreTest, SqBackpressureCountsFullCycles)
{
    // A 2-entry SQ and BASE logging (log persist in the store path)
    // guarantees back-pressure.
    System sys(tinyConfig(DesignKind::Base, /*sq=*/2),
               Addr(8) * 1024 * 1024);
    ScriptedSource source;
    // Stores to distinct lines so every store needs a log write.
    Transaction txn;
    txn.ops.push_back(MemOp::marker(OpKind::AtomicBegin));
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t value = i;
        txn.ops.push_back(MemOp::store(0x60000 + Addr(i) * 64, &value, 8));
        txn.modifiedLines.push_back(0x60000 + Addr(i) * 64);
    }
    txn.ops.push_back(MemOp::marker(OpKind::AtomicEnd));
    source.scripts[0].push_back(txn);

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    EXPECT_EQ(sys.core(0).committed(), 1u);
    EXPECT_GT(sys.stats().value("core0", "sq_full_cycles"), 0u);
}

TEST(CoreTest, StoreToLoadForwardingSkipsTheCache)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    Transaction txn;
    const std::uint64_t value = 7;
    txn.ops.push_back(MemOp::store(0x70000, &value, 8));
    txn.ops.push_back(MemOp::load(0x70000, 8));  // forwarded
    source.scripts[0].push_back(txn);

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    // Only the store touches the L1 (one store, zero loads).
    EXPECT_EQ(sys.stats().value("l1c0", "loads"), 0u);
    EXPECT_EQ(sys.stats().value("l1c0", "stores"), 1u);
}

TEST(CoreTest, AtomicEndWaitsForStoreDrain)
{
    // With ATOM, Atomic_End flushes modified lines; the flushes must
    // observe every store of the region (values in NVM afterwards).
    System sys(tinyConfig(DesignKind::Atom), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    source.scripts[0].push_back(makeTxn(0x80000, 16, true));

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    EXPECT_EQ(sys.core(0).committed(), 1u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(sys.nvmImage().load64(0x80000 + Addr(i) * 8),
                  std::uint64_t(i));
}

TEST(StoreQueueTest, HoldsLineMatchesPendingStores)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const std::uint64_t value = 0xaaaaaaaaaaaaaaaaull;
    bool accepted = false;
    sq.push(MemOp::store(0x90008, &value, 8), [&] { accepted = true; });
    EXPECT_TRUE(accepted);
    EXPECT_TRUE(sq.holdsLine(0x90000));   // same line
    EXPECT_TRUE(sq.holdsLine(0x9003f));
    EXPECT_FALSE(sq.holdsLine(0x90040));  // next line
    sys.eventQueue().run();
    EXPECT_TRUE(sq.empty());
    // The inline payload reached the cache, at its offset in the line.
    const CacheLineState *fr = sys.l1(0).array().find(0x90000);
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->data[7], 0u);
    EXPECT_EQ(fr->data[8], 0xaau);
    EXPECT_EQ(fr->data[15], 0xaau);
    EXPECT_EQ(fr->data[16], 0u);
}

TEST(StoreQueueTest, WhenEmptyFiresAfterDrain)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const std::uint64_t value = 1;
    sq.push(MemOp::store(0xa0000, &value, 8), [] {});
    bool drained = false;
    sq.whenEmpty([&] { drained = true; });
    EXPECT_FALSE(drained);
    sys.eventQueue().run();
    EXPECT_TRUE(drained);
}

// Twice as many stores as the ring has slots, pushed back to back: the
// second half parks as SQ-full waiters and is accepted, in push order,
// into slots the first half's retirements free -- so the ring wraps
// while stores are still pending.
TEST(StoreQueueTest, FullWaitersAcceptInOrderAcrossRingWrap)
{
    const std::uint32_t entries = 8;
    System sys(tinyConfig(DesignKind::NonAtomic, entries),
               Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const std::uint32_t pushes = 2 * entries;
    const Addr base = 0xb0000;  // one cold line per store
    std::vector<std::uint32_t> accepted;
    for (std::uint32_t i = 0; i < pushes; ++i) {
        const std::uint64_t value = i;
        sq.push(MemOp::store(base + Addr(i) * kLineBytes, &value, 8),
                [&accepted, i] { accepted.push_back(i); });
    }
    EXPECT_EQ(accepted.size(), entries);
    EXPECT_EQ(sq.occupancy(), entries);

    // Run until the last store owns an entry: it sits in a wrapped
    // slot, behind stores that have not retired yet.
    sys.eventQueue().runUntil(
        [&] { return accepted.size() == pushes; });
    ASSERT_EQ(accepted.size(), pushes);
    EXPECT_EQ(sq.occupancy(), entries);
    EXPECT_TRUE(sq.holdsLine(base + Addr(pushes - 1) * kLineBytes));
    EXPECT_TRUE(sq.holdsLine(base + Addr(entries) * kLineBytes));
    EXPECT_FALSE(sq.holdsLine(base));  // retired long ago

    sys.eventQueue().run();
    EXPECT_TRUE(sq.empty());
    for (std::uint32_t i = 0; i < pushes; ++i)
        EXPECT_EQ(accepted[i], i);
    const auto &stats = sys.stats();
    EXPECT_EQ(stats.value("core0", "stores_retired"), pushes);
    EXPECT_GT(stats.value("core0", "sq_full_cycles"), 0u);
}

TEST(MemOpDeathTest, StoreWiderThanAWordPanics)
{
    const std::uint8_t bytes[16] = {};
    EXPECT_DEATH(MemOp::store(0x1000, bytes, 9), "inline payload");
}

TEST(AusPoolTest, StructuralOverflowStallsAndRecovers)
{
    EventQueue eq;
    StatSet stats;
    AusPool pool(eq, /*slots=*/1, /*cores=*/2, stats);

    std::uint32_t slot0 = 99;
    pool.acquire(0, [&](std::uint32_t s) { slot0 = s; });
    EXPECT_EQ(slot0, 0u);

    bool got1 = false;
    pool.acquire(1, [&](std::uint32_t) { got1 = true; });
    EXPECT_FALSE(got1);  // structural overflow: waits

    eq.postIn(100, [&] { pool.release(0); });
    eq.run();
    EXPECT_TRUE(got1);
    EXPECT_EQ(pool.slotOf(1), 0);
    EXPECT_GE(pool.structuralStallCycles(), 100u);
}

// The design layer's per-core state, driven directly. What a test
// lambda records goes through a Probe captured by reference, since a
// region's continuation holds at most an owner and an index.
struct Probe
{
    EventQueue &eq;
    DesignContext &design;
    AusPool &pool;
    const StatSet &stats;
    Tick began0 = kTickNever;
    Tick began1 = kTickNever;
    Tick acked0 = kTickNever;
    bool acked1 = false;
    // Eventual durability: state seen at the ack and at the next begin.
    std::uint32_t stagedAtAck = 0;
    int slotAtAck = -1;
    std::uint64_t commitsAtBegin = 0;
};

// Two cores share one AUS: core 1's begin is a structural overflow
// that waits until core 0's commit truncates and releases the slot
// (Section IV-E). A commit with no modified lines has nothing to flush
// and an empty log to truncate, so it completes inside atomicEnd.
TEST(DesignContextTest, BeginWaitsForASlotAndEmptyCommitIsImmediate)
{
    SystemConfig cfg = tinyConfig(DesignKind::Atom);
    cfg.ausPerMc = 1;
    System sys(cfg, Addr(8) * 1024 * 1024);
    Probe p{sys.eventQueue(), sys.designContext(), *sys.ausPool(),
            sys.stats()};

    p.design.atomicBegin(0, [&p] { p.began0 = p.eq.now(); });
    p.design.atomicBegin(1, [&p] { p.began1 = p.eq.now(); });
    EXPECT_EQ(p.pool.slotOf(0), 0);
    EXPECT_EQ(p.pool.slotOf(1), -1);
    p.eq.run();
    EXPECT_NE(p.began0, kTickNever);
    EXPECT_EQ(p.began1, kTickNever);

    p.design.atomicEnd(0, {0x10000, 0x10040},
                       [&p] { p.acked0 = p.eq.now(); });
    p.eq.run();
    ASSERT_NE(p.acked0, kTickNever);
    ASSERT_NE(p.began1, kTickNever);
    EXPECT_GE(p.began1, p.acked0);
    EXPECT_EQ(p.pool.slotOf(0), -1);
    EXPECT_EQ(p.pool.slotOf(1), 0);
    EXPECT_EQ(p.stats.value("design", "commit_flushes"), 2u);
    EXPECT_GT(p.pool.structuralStallCycles(), 0u);

    p.design.atomicEnd(1, {}, [&p] { p.acked1 = true; });
    EXPECT_TRUE(p.acked1);
    EXPECT_EQ(p.pool.slotOf(1), -1);
    EXPECT_EQ(p.stats.value("design", "commits"), 2u);
    EXPECT_EQ(p.stats.value("design", "commit_flushes"), 2u);
}

// Eventual durability acks a commit from the staging window while its
// truncation still runs behind the destage bound: the AUS stays held,
// so a begin issued from the ack parks and resumes only when the
// truncation lands and releases the slot.
TEST(DesignContextTest, EventualAckParksTheNextBeginUntilTruncation)
{
    SystemConfig cfg = tinyConfig(DesignKind::Atom);
    cfg.numCores = 1;
    cfg.l2Tiles = 1;
    cfg.ssdTier = true;
    cfg.durabilityPolicy = DurabilityPolicy::Eventual;
    // The truncated update's data page is cold at once, and its
    // truncation waits for the destage backlog to drain to zero.
    cfg.ssdColdPageWatermark = 0;
    cfg.ssdMaxDestageBacklog = 0;
    System sys(cfg, Addr(8) * 1024 * 1024);
    Probe p{sys.eventQueue(), sys.designContext(), *sys.ausPool(),
            sys.stats()};

    p.design.atomicBegin(0, [&p] { p.began0 = p.eq.now(); });
    p.eq.run();
    ASSERT_NE(p.began0, kTickNever);
    const std::uint64_t value = 42;
    sys.core(0).storeQueue().push(MemOp::store(0x10000, &value, 8),
                                  [] {});
    p.eq.run();
    ASSERT_EQ(p.stats.value("logi", "log_writes"), 1u);

    p.design.atomicEnd(0, {0x10000}, [&p] {
        p.acked0 = p.eq.now();
        p.stagedAtAck = p.design.stagedCommits();
        p.slotAtAck = p.pool.slotOf(0);
        p.design.atomicBegin(0, [&p] {
            p.began1 = p.eq.now();
            p.commitsAtBegin = p.stats.value("design", "commits");
        });
    });
    p.eq.run();
    ASSERT_NE(p.acked0, kTickNever);
    EXPECT_EQ(p.stagedAtAck, 1u);
    EXPECT_EQ(p.slotAtAck, 0);
    ASSERT_NE(p.began1, kTickNever);
    EXPECT_GT(p.began1, p.acked0 + 1);
    EXPECT_EQ(p.commitsAtBegin, 1u);
    EXPECT_EQ(p.design.stagedCommits(), 0u);
    EXPECT_EQ(p.pool.slotOf(0), 0);
    EXPECT_EQ(p.stats.value("design", "staged_acks"), 1u);
    EXPECT_EQ(p.stats.value("design", "commits"), 1u);
    EXPECT_EQ(p.stats.sum("mc", "destage_trunc_waits"), 1u);
}

} // namespace
} // namespace atomsim
