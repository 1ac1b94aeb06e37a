/**
 * @file
 * Unit tests for the ATOM log manager: record format, bucket bit
 * vectors, LogM behaviors (LEC, locking, BASE vs posted acks,
 * duplicate entries, truncation, overflow, source logging).
 */

#include <gtest/gtest.h>

#include "atom/bucket_table.hh"
#include "atom/log_record.hh"
#include "harness/system.hh"

namespace atomsim
{
namespace
{

TEST(LogRecordTest, HeaderRoundTrip)
{
    LogRecordHeader hdr;
    hdr.ausId = 17;
    hdr.count = 5;
    hdr.seq = 0xabcdef01u;
    for (std::uint32_t i = 0; i < 5; ++i)
        hdr.addrs[i] = 0x1000 + i * 64;

    const Line line = hdr.toLine();
    auto back = LogRecordHeader::fromLine(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ausId, 17);
    EXPECT_EQ(back->count, 5);
    EXPECT_EQ(back->seq, 0xabcdef01u);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(back->addrs[i], 0x1000u + i * 64);
}

TEST(LogRecordTest, RejectsGarbage)
{
    Line zeros{};
    EXPECT_FALSE(LogRecordHeader::fromLine(zeros).has_value());

    LogRecordHeader hdr;
    hdr.count = 0;  // invalid entry count
    Line line = hdr.toLine();
    EXPECT_FALSE(LogRecordHeader::fromLine(line).has_value());
    line = hdr.toLine();
    line[2] = 9;  // count > 7
    EXPECT_FALSE(LogRecordHeader::fromLine(line).has_value());
}

TEST(BucketBitVectorTest, SetTestClear)
{
    BucketBitVector vec(256);
    EXPECT_FALSE(vec.test(70));
    vec.set(70);
    vec.set(0);
    vec.set(255);
    EXPECT_TRUE(vec.test(70));
    EXPECT_EQ(vec.popcount(), 3u);
    EXPECT_EQ(vec.firstSet(), 0u);
    vec.clearBit(0);
    EXPECT_EQ(vec.firstSet(), 70u);
    vec.clearAll();
    EXPECT_EQ(vec.popcount(), 0u);
    EXPECT_FALSE(vec.firstSet().has_value());
}

TEST(BucketBitVectorTest, ForEachSetAscending)
{
    BucketBitVector vec(128);
    vec.set(3);
    vec.set(64);
    vec.set(127);
    std::vector<std::uint32_t> seen;
    vec.forEachSet([&](std::uint32_t b) { seen.push_back(b); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 64, 127}));
}

TEST(BucketTableTest, AllocateTruncateFreeList)
{
    BucketTable table(4, 16, 0);
    auto b0 = table.allocate(0);
    auto b1 = table.allocate(1);
    ASSERT_TRUE(b0 && b1);
    EXPECT_NE(*b0, *b1);
    EXPECT_FALSE(table.isFree(*b0));
    EXPECT_FALSE(table.isFree(*b1));

    EXPECT_EQ(table.truncate(0), 1u);
    EXPECT_TRUE(table.isFree(*b0));
    EXPECT_FALSE(table.isFree(*b1));
}

TEST(BucketTableTest, SharedPoolOverflowsOnlyWhenExhausted)
{
    BucketTable table(2, 4, 0);
    // AUS 0 hogs three buckets; AUS 1 still gets the fourth.
    ASSERT_TRUE(table.allocate(0));
    ASSERT_TRUE(table.allocate(0));
    ASSERT_TRUE(table.allocate(0));
    ASSERT_TRUE(table.allocate(1));
    EXPECT_FALSE(table.allocate(1).has_value());  // overflow
    table.truncate(0);
    EXPECT_TRUE(table.allocate(1).has_value());
}

TEST(BucketTableTest, MappedLimitRespectsOsGrant)
{
    BucketTable table(1, 8, 2);  // only 2 buckets mapped initially
    ASSERT_TRUE(table.allocate(0));
    ASSERT_TRUE(table.allocate(0));
    EXPECT_FALSE(table.allocate(0).has_value());
    table.extendMapped(2);
    EXPECT_TRUE(table.allocate(0).has_value());
    EXPECT_EQ(table.mappedBuckets(), 4u);
}

/** LogM tests through a small single-core ATOM system. */
class LogMTest : public ::testing::Test
{
  protected:
    static SystemConfig
    config(DesignKind design, bool lec = true)
    {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.l2Tiles = 2;
        cfg.meshRows = 1;
        cfg.ausPerMc = 2;
        cfg.design = design;
        cfg.enableLec = lec;
        return cfg;
    }

    static Line
    pattern(std::uint8_t seed)
    {
        Line line;
        for (std::uint32_t i = 0; i < kLineBytes; ++i)
            line[i] = std::uint8_t(seed + i);
        return line;
    }
};

TEST_F(LogMTest, PostedEntryLocksUntilHeaderPersists)
{
    System sys(config(DesignKind::Atom), Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);
    ASSERT_NE(logm, nullptr);

    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        logm->beginUpdate(slot);
        bool acked = false;
        logm->postLogEntry(slot, 0x2000, pattern(1),
                           [&] { acked = true; });
        eq.run(eq.now() + 5);
        EXPECT_TRUE(acked);  // posted ack: immediate (match latency)
        EXPECT_TRUE(logm->lineLocked(0x2000));
    });
    eq.run();
    // LEC: one entry does not fill the record; the line stays locked
    // until something forces the header out. Force via the gate.
    EXPECT_TRUE(logm->lineLocked(0x2000));

    bool unlocked = false;
    EXPECT_FALSE(logm->tryAcquire(0x2000, [&] { unlocked = true; }));
    eq.run();
    EXPECT_TRUE(unlocked);          // forced seal persisted the header
    EXPECT_FALSE(logm->lineLocked(0x2000));
}

TEST_F(LogMTest, BaseAckWaitsForPersistence)
{
    System sys(config(DesignKind::Base), Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        logm->beginUpdate(slot);
        Tick acked_at = 0;
        logm->postLogEntry(slot, 0x2000, pattern(2),
                           [&] { acked_at = eq.now(); });
        eq.run();
        // BASE: ack after data + header device writes (2 x 360 min).
        EXPECT_GT(acked_at, 2u * 360u);
        // Once acked, the entry is durable: no lock remains.
        EXPECT_FALSE(logm->lineLocked(0x2000));
    });
    eq.run();
}

// An L1 re-logs a line when it lost the line after the first entry's
// ack. Under BASE that ack waited for the header to persist, so the
// re-log finds the line already durable: the address match alone acks
// it, and no record is spent.
TEST_F(LogMTest, BaseDuplicateAfterAckCostsOnlyTheAddressMatch)
{
    System sys(config(DesignKind::Base), Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    std::uint32_t slot = 0;
    sys.ausPool()->acquire(0, [&slot](std::uint32_t s) { slot = s; });
    logm->beginUpdate(slot);
    Tick first_ack = 0;
    logm->postLogEntry(slot, 0x2000, pattern(2),
                       [&] { first_ack = eq.now(); });
    eq.run();
    ASSERT_GT(first_ack, 0u);
    ASSERT_FALSE(logm->lineLocked(0x2000));
    const std::uint64_t records = sys.stats().value("logm0", "records");

    const Tick posted_at = eq.now();
    Tick dup_ack = 0;
    logm->postLogEntry(slot, 0x2000, pattern(3),
                       [&] { dup_ack = eq.now(); });
    eq.run();
    EXPECT_EQ(sys.stats().value("logm0", "dup_entries"), 1u);
    EXPECT_EQ(sys.stats().value("logm0", "entries"), 1u);
    EXPECT_EQ(sys.stats().value("logm0", "records"), records);
    EXPECT_EQ(dup_ack, posted_at + SystemConfig::mcAddrMatchLatency);
}

// Under ATOM a re-log can arrive while the first entry still sits in
// the open record's header register: the posted ack needs only the
// address match, and the open record takes no second entry.
TEST_F(LogMTest, AtomDuplicateInTheOpenRecordCostsOnlyTheAddressMatch)
{
    System sys(config(DesignKind::Atom), Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    std::uint32_t slot = 0;
    sys.ausPool()->acquire(0, [&slot](std::uint32_t s) { slot = s; });
    logm->beginUpdate(slot);
    bool first_acked = false;
    logm->postLogEntry(slot, 0x2000, pattern(2),
                       [&] { first_acked = true; });
    eq.run(eq.now() + 5);
    ASSERT_TRUE(first_acked);
    ASSERT_TRUE(logm->lineLocked(0x2000));  // LEC keeps the record open
    const std::uint64_t records = sys.stats().value("logm0", "records");

    const Tick posted_at = eq.now();
    Tick dup_ack = 0;
    logm->postLogEntry(slot, 0x2000, pattern(3),
                       [&] { dup_ack = eq.now(); });
    eq.run();
    EXPECT_EQ(sys.stats().value("logm0", "dup_entries"), 1u);
    EXPECT_EQ(sys.stats().value("logm0", "entries"), 1u);
    EXPECT_EQ(sys.stats().value("logm0", "records"), records);
    EXPECT_EQ(dup_ack, posted_at + SystemConfig::mcAddrMatchLatency);
    EXPECT_TRUE(logm->lineLocked(0x2000));
}

TEST_F(LogMTest, LecFillsSevenEntryRecords)
{
    System sys(config(DesignKind::Atom), Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        logm->beginUpdate(slot);
        for (int i = 0; i < 7; ++i) {
            logm->postLogEntry(slot, 0x2000 + Addr(i) * 64,
                               pattern(std::uint8_t(i)), {});
        }
    });
    eq.run();
    // 7 entries = exactly one record; 8 NVM writes (7 data + 1 hdr).
    EXPECT_EQ(sys.stats().value("logm0", "records"), 1u);
    EXPECT_EQ(sys.stats().value("logm0", "entries"), 7u);
    EXPECT_EQ(sys.stats().value("mc0", "log_writes"), 8u);
    // Record full -> header persisted -> all lines unlocked.
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(logm->lineLocked(0x2000 + Addr(i) * 64));
}

TEST_F(LogMTest, LecOffCostsTwoWritesPerEntry)
{
    System sys(config(DesignKind::Atom, /*lec=*/false),
               Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        logm->beginUpdate(slot);
        for (int i = 0; i < 7; ++i) {
            logm->postLogEntry(slot, 0x2000 + Addr(i) * 64,
                               pattern(std::uint8_t(i)), {});
        }
    });
    eq.run();
    EXPECT_EQ(sys.stats().value("logm0", "records"), 7u);
    EXPECT_EQ(sys.stats().value("mc0", "log_writes"), 14u);
}

TEST_F(LogMTest, TruncateFreesBucketsAndUnlocks)
{
    System sys(config(DesignKind::Atom), Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    std::uint32_t slot_used = 0;
    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        slot_used = slot;
        logm->beginUpdate(slot);
        for (int i = 0; i < 3; ++i) {
            logm->postLogEntry(slot, 0x2000 + Addr(i) * 64,
                               pattern(std::uint8_t(i)), {});
        }
    });
    eq.run();
    EXPECT_EQ(logm->buckets().vectorOf(slot_used).popcount(), 1u);

    bool truncated = false;
    logm->truncate(slot_used, [&] { truncated = true; });
    eq.run();
    EXPECT_TRUE(truncated);
    EXPECT_EQ(logm->buckets().vectorOf(slot_used).popcount(), 0u);
    EXPECT_EQ(sys.stats().value("logm0", "truncations"), 1u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(logm->lineLocked(0x2000 + Addr(i) * 64));
    EXPECT_FALSE(logm->aus(slot_used).active);
}

TEST_F(LogMTest, LogOverflowInterruptsOsAndProceeds)
{
    SystemConfig cfg = config(DesignKind::Atom);
    cfg.osInitialBucketsPerMc = 1;  // force overflow on bucket #2
    System sys(cfg, Addr(16) * 1024 * 1024);
    auto &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);

    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        logm->beginUpdate(slot);
        // A bucket holds 8 records = 56 entries with LEC; push past it.
        for (int i = 0; i < 60; ++i) {
            logm->postLogEntry(slot, 0x2000 + Addr(i) * 64,
                               pattern(std::uint8_t(i)), {});
        }
    });
    eq.run();
    EXPECT_GE(sys.stats().value("os", "log_overflow_interrupts"), 1u);
    EXPECT_EQ(sys.stats().value("logm0", "entries"), 60u);
}

TEST_F(LogMTest, SourceLogFillRequiresActiveUpdate)
{
    System sys(config(DesignKind::AtomOpt), Addr(16) * 1024 * 1024);
    LogM *logm = sys.logm(0);
    // Core 0 has no active atomic update: no source logging.
    EXPECT_FALSE(logm->sourceLogFill(0, 0x2000, Line{}));

    sys.ausPool()->acquire(0, [&](std::uint32_t slot) {
        logm->beginUpdate(slot);
        EXPECT_TRUE(logm->sourceLogFill(0, 0x2000, Line{}));
    });
    sys.eventQueue().run();
    EXPECT_EQ(sys.stats().value("logm0", "source_logged"), 1u);

    // Only ATOM-OPT source-logs: under ATOM an active update's fills
    // come back unlogged.
    System atom(config(DesignKind::Atom), Addr(16) * 1024 * 1024);
    LogM *atom_logm = atom.logm(0);
    atom.ausPool()->acquire(0, [atom_logm](std::uint32_t slot) {
        atom_logm->beginUpdate(slot);
        EXPECT_FALSE(atom_logm->sourceLogFill(0, 0x2000, Line{}));
    });
    atom.eventQueue().run();
    EXPECT_EQ(atom.stats().value("logm0", "source_logged"), 0u);
    EXPECT_EQ(atom.stats().value("logm0", "entries"), 0u);
}

TEST_F(LogMTest, CriticalStateSmall)
{
    System sys(config(DesignKind::Atom), Addr(16) * 1024 * 1024);
    // The ADR-flushable state must stay tiny (the paper argues 128 B;
    // ours adds recovery-exact registers but must fit one page).
    EXPECT_LE(sys.config().adrStateBytes(), kPageBytes);
}

} // namespace
} // namespace atomsim
