/**
 * @file
 * Unit tests for the memory substrate: data images, the address map,
 * channels and the memory controller (including the write gate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_map.hh"
#include "mem/dram_cache.hh"
#include "mem/dram_device.hh"
#include "mem/memory_controller.hh"
#include "mem/nvm_channel.hh"
#include "mem/phys_mem.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace atomsim
{
namespace
{

TEST(DataImageTest, ZeroInitializedReads)
{
    DataImage img;
    EXPECT_EQ(img.load64(0x1234), 0u);
    EXPECT_EQ(img.pagesAllocated(), 0u);
}

// A page that a write materializes reads zero wherever the write did
// not land, even when the allocator hands back memory that held other
// bytes: touchPage value-initializes each new page.
TEST(DataImageTest, FreshPageReadsZeroAroundTheWrite)
{
    constexpr Addr kPages = 8;
    {
        DataImage used;
        const std::vector<std::uint8_t> ones(kPageBytes, 0xff);
        for (Addr p = 0; p < kPages; ++p)
            used.write(p * kPageBytes, kPageBytes, ones.data());
    }  // its pages go back to the allocator

    DataImage img;
    const std::uint8_t mark = 0x5a;
    for (Addr p = 0; p < kPages; ++p)
        img.write(p * kPageBytes + 100 + p, 1, &mark);

    std::vector<std::uint8_t> page(kPageBytes);
    for (Addr p = 0; p < kPages; ++p) {
        img.read(p * kPageBytes, kPageBytes, page.data());
        std::size_t nonzero = 0;
        for (std::size_t i = 0; i < kPageBytes; ++i) {
            if (i != 100 + p && page[i] != 0)
                ++nonzero;
        }
        EXPECT_EQ(page[100 + p], mark) << "page " << p;
        EXPECT_EQ(nonzero, 0u) << "page " << p;
    }
}

TEST(DataImageTest, ScalarRoundTrip)
{
    DataImage img;
    img.store64(0x100, 0xdeadbeefcafef00dULL);
    img.store32(0x108, 0x12345678u);
    EXPECT_EQ(img.load64(0x100), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(img.load32(0x108), 0x12345678u);
}

TEST(DataImageTest, CrossPageWrite)
{
    DataImage img;
    std::uint8_t buf[256];
    for (int i = 0; i < 256; ++i)
        buf[i] = std::uint8_t(i);
    const Addr addr = kPageBytes - 100;  // straddles a page boundary
    img.write(addr, sizeof(buf), buf);
    std::uint8_t back[256];
    img.read(addr, sizeof(back), back);
    EXPECT_EQ(std::memcmp(buf, back, sizeof(buf)), 0);
    EXPECT_EQ(img.pagesAllocated(), 2u);
}

TEST(DataImageTest, LineRoundTripAligns)
{
    DataImage img;
    Line line;
    for (std::uint32_t i = 0; i < kLineBytes; ++i)
        line[i] = std::uint8_t(i * 3);
    img.writeLine(0x1238, line);  // unaligned address -> line 0x1200
    const Line back = img.readLine(0x1200);
    EXPECT_EQ(back, line);
}

TEST(DataImageTest, CloneIsDeep)
{
    DataImage img;
    img.store64(0x40, 7);
    DataImage copy = img.clone();
    img.store64(0x40, 9);
    EXPECT_EQ(copy.load64(0x40), 7u);
    EXPECT_EQ(img.load64(0x40), 9u);
}

TEST(DataImageTest, WriteThroughCloneDoesNotReachSource)
{
    DataImage img;
    img.store64(0x40, 7);
    img.store64(kPageBytes + 0x80, 11);
    DataImage copy = img.clone();
    copy.store64(0x40, 9);
    copy.store64(0x48, 10);
    EXPECT_EQ(img.load64(0x40), 7u);
    EXPECT_EQ(img.load64(0x48), 0u);
    EXPECT_EQ(copy.load64(0x40), 9u);
    EXPECT_EQ(copy.load64(kPageBytes + 0x80), 11u);
    // The source's next write lands in its own page, not the clone's.
    img.store64(0x40, 8);
    EXPECT_EQ(copy.load64(0x40), 9u);
    EXPECT_EQ(img.load64(0x40), 8u);
}

TEST(DataImageTest, TornAndStraddlingWritesLandOnASharedPage)
{
    DataImage img;
    std::vector<std::uint8_t> fill(2 * kPageBytes);
    for (std::size_t i = 0; i < fill.size(); ++i)
        fill[i] = std::uint8_t(i * 7 + 1);
    img.write(0, fill.size(), fill.data());
    DataImage copy = img.clone();

    // A torn line write through the clone: three words land.
    Line line;
    line.fill(0xee);
    copy.writeLineWords(0x200, line, 3);
    const Line torn = copy.readLine(0x200);
    const Line was = img.readLine(0x200);
    for (std::uint32_t i = 0; i < kLineBytes; ++i) {
        EXPECT_EQ(torn[i], i < 24 ? 0xee : fill[0x200 + i]) << i;
        EXPECT_EQ(was[i], fill[0x200 + i]) << i;
    }

    // A write across the page boundary, through the source this time:
    // both of its pages are still shared with the clone.
    std::uint8_t across[200];
    std::memset(across, 0x33, sizeof(across));
    const Addr at = kPageBytes - 100;
    img.write(at, sizeof(across), across);

    std::vector<std::uint8_t> seen(fill.size());
    copy.read(0, seen.size(), seen.data());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const bool torn_word = i >= 0x200 && i < 0x200 + 24;
        ASSERT_EQ(seen[i], torn_word ? 0xee : fill[i]) << "clone byte " << i;
    }
    img.read(0, seen.size(), seen.data());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const bool straddle = i >= at && i < at + sizeof(across);
        ASSERT_EQ(seen[i], straddle ? 0x33 : fill[i]) << "source byte " << i;
    }
}

TEST(DataImageTest, CloneOutlivesItsSource)
{
    auto img = std::make_unique<DataImage>();
    img->store64(0x40, 7);
    img->store64(3 * kPageBytes, 21);
    DataImage copy = img->clone();
    img.reset();

    EXPECT_EQ(copy.load64(0x40), 7u);
    EXPECT_EQ(copy.load64(3 * kPageBytes), 21u);
    copy.store64(0x40, 8);
    EXPECT_EQ(copy.load64(0x40), 8u);
    EXPECT_EQ(copy.pagesAllocated(), 2u);
}

TEST(DataImageTest, CloneOfACloneKeepsAllThreeApart)
{
    DataImage a;
    a.store64(0x40, 1);
    a.store64(0x1040, 100);
    DataImage b = a.clone();
    DataImage c = b.clone();

    a.store64(0x40, 2);
    b.store64(0x40, 3);
    c.store64(0x40, 4);
    EXPECT_EQ(a.load64(0x40), 2u);
    EXPECT_EQ(b.load64(0x40), 3u);
    EXPECT_EQ(c.load64(0x40), 4u);

    // A page none of them wrote since the clones still reads the same
    // everywhere, and a write to it through the middle image stays
    // there.
    b.store64(0x1048, 5);
    for (const DataImage *img : {&a, &b, &c})
        EXPECT_EQ(img->load64(0x1040), 100u);
    EXPECT_EQ(a.load64(0x1048), 0u);
    EXPECT_EQ(b.load64(0x1048), 5u);
    EXPECT_EQ(c.load64(0x1048), 0u);
}

TEST(DataImageTest, MoveAssignOverASharedImage)
{
    DataImage a;
    a.store64(0x40, 1);
    DataImage b = a.clone();
    DataImage c;
    c.store64(0x40, 2);
    c.store64(0x2000, 3);

    b = c.clone();  // b's share of a's page is dropped
    EXPECT_EQ(a.load64(0x40), 1u);
    EXPECT_EQ(b.load64(0x40), 2u);
    EXPECT_EQ(b.load64(0x2000), 3u);

    a.store64(0x40, 4);
    b.store64(0x40, 5);
    c.store64(0x40, 6);
    EXPECT_EQ(a.load64(0x40), 4u);
    EXPECT_EQ(b.load64(0x40), 5u);
    EXPECT_EQ(c.load64(0x40), 6u);

    b = b.clone();  // over the image it was cloned from
    EXPECT_EQ(b.load64(0x40), 5u);
    EXPECT_EQ(b.load64(0x2000), 3u);
    b.store64(0x2000, 7);
    EXPECT_EQ(b.load64(0x2000), 7u);
    EXPECT_EQ(c.load64(0x2000), 3u);
}

// Clones against deep copies: a seeded stream of writes of every shape
// (scalar, line, torn line, page-straddling), reads, clones (moved over
// an image, or replacing and so destroying it) and destructions, over
// a few images that share a 16-page window. Each image has a plain
// byte-array reference that the test copies deeply; after every write
// the written span is compared in every image, and every image in full
// now and then.
TEST(DataImageTest, ClonesMatchDeepCopiesUnderRandomOps)
{
    constexpr std::size_t kImages = 4;
    constexpr Addr kWindow = 16 * kPageBytes;
    constexpr int kOps = 100000;

    std::vector<std::unique_ptr<DataImage>> imgs(kImages);
    std::vector<std::vector<std::uint8_t>> refs(kImages);
    for (std::size_t i = 0; i < kImages; ++i) {
        imgs[i] = std::make_unique<DataImage>();
        refs[i].assign(kWindow, 0);
    }

    std::vector<std::uint8_t> buf(kWindow);
    const auto matches = [&](std::size_t i, Addr addr, std::size_t size) {
        imgs[i]->read(addr, size, buf.data());
        return std::memcmp(buf.data(), &refs[i][addr], size) == 0;
    };

    Random rng(2024);
    std::uint64_t clones = 0, destroyed = 0;
    for (int op = 0; op < kOps; ++op) {
        const std::size_t i = std::size_t(rng.below(kImages));
        const std::uint64_t kind = rng.below(100);
        Addr addr = 0;
        std::size_t size = 0;
        if (kind < 60) {
            std::uint8_t bytes[kPageBytes];
            if (kind < 20) {  // scalar
                size = rng.chance(0.5) ? 8 : 4;
                addr = rng.below(kWindow - size + 1);
                for (std::size_t b = 0; b < size; ++b)
                    bytes[b] = std::uint8_t(rng.next());
                if (size == 8) {
                    std::uint64_t v;
                    std::memcpy(&v, bytes, 8);
                    imgs[i]->store64(addr, v);
                } else {
                    std::uint32_t v;
                    std::memcpy(&v, bytes, 4);
                    imgs[i]->store32(addr, v);
                }
            } else if (kind < 35) {  // line, whole or torn
                Line line;
                for (std::uint8_t &b : line)
                    b = std::uint8_t(rng.next());
                addr = lineAlign(rng.below(kWindow));
                // 0-9 words (9 clamps to the line's 8), or 10: a whole
                // line at an unaligned address.
                const std::uint32_t words = std::uint32_t(rng.below(11));
                if (words == 10)
                    imgs[i]->writeLine(addr + rng.below(kLineBytes), line);
                else
                    imgs[i]->writeLineWords(addr, line, words);
                size = std::size_t(std::min<std::uint32_t>(words, 8)) * 8;
                std::memcpy(bytes, line.data(), size);
            } else {  // straddling a page boundary
                const Addr boundary = (1 + rng.below(15)) * kPageBytes;
                const std::size_t before = 1 + rng.below(300);
                addr = boundary - before;
                size = before + 1 + rng.below(300);
                for (std::size_t b = 0; b < size; ++b)
                    bytes[b] = std::uint8_t(rng.next());
                imgs[i]->write(addr, size, bytes);
            }
            std::memcpy(&refs[i][addr], bytes, size);
            for (std::size_t j = 0; j < kImages; ++j)
                ASSERT_TRUE(matches(j, addr, size))
                    << "op " << op << ": image " << j << " after a write to "
                    << i << " at " << addr << " (" << size << " bytes)";
        } else if (kind < 80) {  // read
            addr = rng.below(kWindow);
            size = 1 + rng.below(
                           std::min<Addr>(kWindow - addr, 2 * kPageBytes));
            ASSERT_TRUE(matches(i, addr, size)) << "op " << op;
        } else if (kind < 95) {  // clone, moved over an image or replacing it
            const std::size_t j = std::size_t(rng.below(kImages));
            if (rng.chance(0.5))
                *imgs[j] = imgs[i]->clone();
            else
                imgs[j] = std::make_unique<DataImage>(imgs[i]->clone());
            refs[j] = refs[i];
            ++clones;
        } else {  // destroy, and start again empty
            imgs[i] = std::make_unique<DataImage>();
            refs[i].assign(kWindow, 0);
            ++destroyed;
        }
        if (op % 1000 == 999) {
            for (std::size_t j = 0; j < kImages; ++j)
                ASSERT_TRUE(matches(j, 0, kWindow)) << "op " << op;
        }
    }
    for (std::size_t j = 0; j < kImages; ++j)
        EXPECT_TRUE(matches(j, 0, kWindow)) << "image " << j;
    EXPECT_GT(clones, 10000u);
    EXPECT_GT(destroyed, 3000u);
}

class AddressMapTest : public ::testing::Test
{
  protected:
    SystemConfig cfg;
    AddressMap amap{cfg, Addr(16) * 1024 * 1024};
};

TEST_F(AddressMapTest, PageInterleavingAcrossMcs)
{
    EXPECT_EQ(amap.memCtrl(0), 0u);
    EXPECT_EQ(amap.memCtrl(kPageBytes), 1u);
    EXPECT_EQ(amap.memCtrl(2 * kPageBytes), 2u);
    EXPECT_EQ(amap.memCtrl(3 * kPageBytes), 3u);
    EXPECT_EQ(amap.memCtrl(4 * kPageBytes), 0u);
    // All lines of one page map to the same controller.
    EXPECT_EQ(amap.memCtrl(kPageBytes + 64), 1u);
    EXPECT_EQ(amap.memCtrl(kPageBytes + 4032), 1u);
}

TEST_F(AddressMapTest, BucketIsOnePageOnOwningMc)
{
    for (McId mc = 0; mc < 4; ++mc) {
        for (std::uint32_t b : {0u, 1u, 17u, 255u}) {
            const Addr base = amap.bucketBase(mc, b);
            EXPECT_EQ(amap.memCtrl(base), mc);
            EXPECT_EQ(base % kPageBytes, 0u);
            EXPECT_TRUE(amap.isLogAddr(base));
            EXPECT_TRUE(amap.isLogAddr(base + kPageBytes - 1));
        }
    }
}

TEST_F(AddressMapTest, RecordsTileTheBucket)
{
    const Addr b0 = amap.bucketBase(2, 5);
    for (std::uint32_t r = 0; r < AddressMap::kRecordsPerBucket; ++r) {
        EXPECT_EQ(amap.recordBase(2, 5, r), b0 + r * 512);
    }
}

TEST_F(AddressMapTest, AdrRegionPerMcAfterLog)
{
    for (McId mc = 0; mc < 4; ++mc) {
        const Addr adr = amap.adrBase(mc);
        EXPECT_GE(adr, amap.logEnd());
        EXPECT_EQ(amap.memCtrl(adr), mc);
    }
    EXPECT_EQ(amap.reservedEnd(), amap.logEnd() + 4 * kPageBytes);
}

TEST_F(AddressMapTest, DataRegionIsNotLog)
{
    EXPECT_FALSE(amap.isLogAddr(0));
    EXPECT_FALSE(amap.isLogAddr(amap.logBase() - 1));
    EXPECT_FALSE(amap.isLogAddr(amap.logEnd()));
}

TEST(NvmChannelTest, ReadWriteLatencies)
{
    EventQueue eq;
    SystemConfig cfg;
    NvmChannel chan(eq, cfg);
    const Tick t_read = chan.scheduleRead();
    // transfer (25) + read latency (240)
    EXPECT_EQ(t_read, 25u + 240u);
    EXPECT_EQ(chan.freeAt(), 25u);
}

TEST(NvmChannelTest, BackToBackTransfersSerialize)
{
    EventQueue eq;
    SystemConfig cfg;
    NvmChannel chan(eq, cfg);
    const Tick w1 = chan.scheduleWrite();
    const Tick w2 = chan.scheduleWrite();
    EXPECT_EQ(w1, 25u + 360u);
    EXPECT_EQ(w2, 50u + 360u);  // channel occupancy serializes
    EXPECT_EQ(chan.busyCycles(), 50u);
    EXPECT_EQ(chan.writes(), 2u);
}

class MemCtrlTest : public ::testing::Test
{
  protected:
    MemCtrlTest()
        : amap(cfg, Addr(16) * 1024 * 1024),
          mc(0, eq, cfg, nvm, stats)
    {
    }

    SystemConfig cfg;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    AddressMap amap;
    MemoryController mc;
};

TEST_F(MemCtrlTest, WriteThenReadReturnsData)
{
    Line data{};
    data[0] = 0xab;
    bool wrote = false;
    mc.writeLine(0x1000, data, WriteKind::DataWb, [&] { wrote = true; });
    eq.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(nvm.readLine(0x1000)[0], 0xab);

    bool read = false;
    mc.readLine(0x1000, ReadKind::Demand, [&](const Line &line) {
        read = true;
        EXPECT_EQ(line[0], 0xab);
    });
    eq.run();
    EXPECT_TRUE(read);
}

TEST_F(MemCtrlTest, ReadForwardsFromPendingWrite)
{
    Line data{};
    data[5] = 0x77;
    mc.writeLine(0x2000, data, WriteKind::DataWb, {});
    // Issue the read immediately: the write is still queued.
    bool read = false;
    mc.readLine(0x2000, ReadKind::Demand, [&](const Line &line) {
        read = true;
        EXPECT_EQ(line[5], 0x77);
    });
    eq.run();
    EXPECT_TRUE(read);
}

TEST_F(MemCtrlTest, WriteCombiningMergesSameLine)
{
    Line a{};
    a[0] = 1;
    Line b{};
    b[0] = 2;
    int acks = 0;
    mc.writeLine(0x3000, a, WriteKind::DataWb, [&] { ++acks; });
    mc.writeLine(0x3000, b, WriteKind::DataWb, [&] { ++acks; });
    eq.run();
    EXPECT_EQ(acks, 2);               // both callbacks fire
    EXPECT_EQ(nvm.readLine(0x3000)[0], 2);  // newest data wins
    EXPECT_EQ(stats.value("mc0", "data_writes"), 2u);
}

TEST_F(MemCtrlTest, ReadForwardsNewestDataAfterWriteCombining)
{
    // Regression: combining a second write into a queued request must
    // also refresh the read-forwarding snapshot -- a read accepted
    // after the combine has to observe the combined bytes, not the
    // first write's.
    Line a{};
    a[0] = 1;
    Line b{};
    b[0] = 2;
    mc.writeLine(0x3100, a, WriteKind::DataWb, {});
    mc.writeLine(0x3100, b, WriteKind::DataWb, {});
    bool read = false;
    mc.readLine(0x3100, ReadKind::Demand, [&](const Line &line) {
        read = true;
        EXPECT_EQ(line[0], 2);
    });
    eq.run();
    EXPECT_TRUE(read);
}

TEST_F(MemCtrlTest, WhenLineDurableWaitsForPendingWrite)
{
    Line data{};
    bool durable = false;
    mc.writeLine(0x4000, data, WriteKind::Flush, {});
    mc.whenLineDurable(0x4000, [&] { durable = true; });
    EXPECT_FALSE(durable);
    eq.run();
    EXPECT_TRUE(durable);
}

TEST_F(MemCtrlTest, WhenLineDurableImmediateWhenIdle)
{
    bool durable = false;
    mc.whenLineDurable(0x5000, [&] { durable = true; });
    EXPECT_TRUE(durable);
}

// whenLineDurable() waiters park per line: a line's waiters fire in
// registration order when that line's write persists, before the
// write's own ack, and independently of other lines.
TEST_F(MemCtrlTest, DurabilityWaitersFirePerLineInRegistrationOrder)
{
    Line data{};
    std::vector<int> order;
    std::vector<Tick> at;
    const auto record = [&](int id) {
        order.push_back(id);
        at.push_back(eq.now());
    };
    mc.writeLine(0xa000, data, WriteKind::Flush, [&] { record(10); });
    mc.writeLine(0xb000, data, WriteKind::Flush, [&] { record(20); });
    mc.whenLineDurable(0xa000, [&] { record(1); });
    mc.whenLineDurable(0xb000, [&] { record(3); });
    mc.whenLineDurable(0xa000, [&] { record(2); });
    EXPECT_TRUE(order.empty());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 3, 20}));
    ASSERT_EQ(at.size(), 5u);
    EXPECT_EQ(at[0], at[2]);  // line A's waiters fire with its write
    EXPECT_EQ(at[3], at[4]);  // line B's with B's, one transfer later
    EXPECT_LT(at[2], at[3]);

    // Both lines are idle again: a new waiter runs at once.
    bool durable = false;
    mc.whenLineDurable(0xa000, [&] { durable = true; });
    EXPECT_TRUE(durable);
}

// Combining merges a write only into a queued request of the same line
// and kind. Each device write occupies the channel for one transfer,
// so channelBusyCycles() counts the writes that reached the device.
TEST_F(MemCtrlTest, CombinesOnlyAQueuedWriteOfTheSameLineAndKind)
{
    const std::uint64_t transfer = cfg.lineTransferCycles();
    Line a{};
    a[0] = 1;
    Line b{};
    b[0] = 2;
    int acks = 0;

    // Same line, different kinds: two device writes, newest bytes last.
    mc.writeLine(0xc000, a, WriteKind::Flush, [&] { ++acks; });
    mc.writeLine(0xc000, b, WriteKind::DataWb, [&] { ++acks; });
    eq.run();
    EXPECT_EQ(acks, 2);
    EXPECT_EQ(mc.channelBusyCycles(), 2 * transfer);
    EXPECT_EQ(nvm.readLine(0xc000)[0], 2);

    // Another line while one is queued: not combined.
    mc.writeLine(0xd000, a, WriteKind::DataWb, [&] { ++acks; });
    mc.writeLine(0xe000, b, WriteKind::DataWb, [&] { ++acks; });
    eq.run();
    EXPECT_EQ(acks, 4);
    EXPECT_EQ(mc.channelBusyCycles(), 4 * transfer);
    EXPECT_EQ(nvm.readLine(0xd000)[0], 1);
    EXPECT_EQ(nvm.readLine(0xe000)[0], 2);

    // The line still has a write outstanding, but it left the queue
    // for the device: the second write is its own device write, and
    // its bytes land after the first's.
    std::vector<std::uint8_t> landed;  // the image at each ack
    const auto land = [&] {
        ++acks;
        landed.push_back(nvm.readLine(0xf000)[0]);
    };
    mc.writeLine(0xf000, a, WriteKind::DataWb, land);
    eq.run(eq.now() + cfg.mcFrontendLatency + 1);
    ASSERT_EQ(mc.channelBusyCycles(), 5 * transfer);  // on the device
    ASSERT_EQ(mc.pendingWrites(), 1u);                // not yet durable
    mc.writeLine(0xf000, b, WriteKind::DataWb, land);
    eq.run();
    EXPECT_EQ(acks, 6);
    EXPECT_EQ(mc.channelBusyCycles(), 6 * transfer);
    EXPECT_EQ(landed, (std::vector<std::uint8_t>{1, 2}));
}

TEST_F(MemCtrlTest, LatencyIncludesDeviceWrite)
{
    Line data{};
    Tick done_at = 0;
    mc.writeLine(0x6000, data, WriteKind::DataWb,
                 [&] { done_at = eq.now(); });
    eq.run();
    // frontend (8) + transfer (25) + device write (360) + match (1)
    EXPECT_GE(done_at, 8u + 25u + 360u);
    EXPECT_LE(done_at, 8u + 25u + 360u + 2u);
}

/** A gate that locks one line until released. */
class TestGate : public WriteGate
{
  public:
    bool
    tryAcquire(Addr line, UnlockCallback on_unlock) override
    {
        if (line == locked) {
            waiters.push_back(std::move(on_unlock));
            return false;
        }
        return true;
    }

    void
    release()
    {
        locked = ~Addr(0);
        for (auto &w : waiters)
            w();
        waiters.clear();
    }

    Addr locked = ~Addr(0);
    std::vector<UnlockCallback> waiters;
};

TEST_F(MemCtrlTest, GateBlocksDataWriteUntilUnlocked)
{
    TestGate gate;
    gate.locked = 0x7000;
    mc.setWriteGate(&gate);

    Line data{};
    data[0] = 9;
    bool wrote = false;
    mc.writeLine(0x7000, data, WriteKind::DataWb, [&] { wrote = true; });
    eq.run();
    EXPECT_FALSE(wrote);  // blocked by the gate
    EXPECT_EQ(stats.value("mc0", "gate_blocks"), 1u);

    gate.release();
    eq.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(nvm.readLine(0x7000)[0], 9);
    mc.setWriteGate(nullptr);
}

TEST_F(MemCtrlTest, GateNeverBlocksLogWrites)
{
    TestGate gate;
    gate.locked = 0x8000;
    mc.setWriteGate(&gate);
    Line data{};
    bool wrote = false;
    mc.writeLine(0x8000, data, WriteKind::LogData, [&] { wrote = true; });
    eq.run();
    EXPECT_TRUE(wrote);  // log traffic bypasses the gate
    mc.setWriteGate(nullptr);
}

TEST_F(MemCtrlTest, PowerFailDropsQueuedWrites)
{
    Line data{};
    data[0] = 0x55;
    bool wrote = false;
    mc.writeLine(0x9000, data, WriteKind::DataWb, [&] { wrote = true; });
    mc.powerFail();
    eq.clear();
    eq.run();
    EXPECT_FALSE(wrote);
    EXPECT_EQ(nvm.readLine(0x9000)[0], 0);  // never reached NVM
}

TEST_F(MemCtrlTest, TwoChannelSteeringSeparatesLogTraffic)
{
    SystemConfig cfg2;
    cfg2.channelsPerMc = 2;
    MemoryController mc2(1, eq, cfg2, nvm, stats);
    Line data{};
    // Data write then log write: with two channels both can complete
    // at their solo latency (no shared-channel serialization).
    Tick t_data = 0;
    Tick t_log = 0;
    mc2.writeLine(0x10000, data, WriteKind::DataWb,
                  [&] { t_data = eq.now(); });
    mc2.writeLine(0x11000, data, WriteKind::LogData,
                  [&] { t_log = eq.now(); });
    eq.run();
    // If they shared one channel one of them would finish ~25 cycles
    // later than the other; with two they finish within a cycle.
    EXPECT_LE(t_data > t_log ? t_data - t_log : t_log - t_data, 2u);
}

// --- Hybrid memory: DRAM device timing -------------------------------

class DramDeviceTest : public ::testing::Test
{
  protected:
    DramDeviceTest()
        : rowHits(stats.counter("mc0", "row_hits")),
          rowMisses(stats.counter("mc0", "row_misses")),
          dev(eq, cfg, rowHits, rowMisses)
    {
    }

    Tick
    accessDone(Addr addr, bool write, Tick ready = 0)
    {
        Tick done = 0;
        dev.access(addr, write, ready,
                   [&done, this] { done = eq.now(); });
        eq.run();
        return done;
    }

    SystemConfig cfg;
    EventQueue eq;
    StatSet stats;
    Counter &rowHits;
    Counter &rowMisses;
    DramDevice dev;
};

TEST_F(DramDeviceTest, RowHitIsFasterThanRowMiss)
{
    // Cold access: transfer (10 cycles at 12.8 GB/s) + row miss (36).
    const Tick first = accessDone(0x10000, false);
    EXPECT_EQ(first, cfg.dramTransferCycles() + cfg.dramRowMissLatency);
    EXPECT_EQ(rowMisses.value(), 1u);

    // Same row again: row hit, only the hit latency after the bank
    // frees.
    const Tick second = accessDone(0x10040, false);
    EXPECT_EQ(second - first,
              cfg.dramTransferCycles() + cfg.dramRowHitLatency);
    EXPECT_EQ(rowHits.value(), 1u);

    // Different row, same bank: row miss again.
    const Addr other_row =
        0x10000 + Addr(cfg.dramRowBytes) * cfg.dramBanksPerMc;
    accessDone(other_row, false);
    EXPECT_EQ(rowMisses.value(), 2u);
}

TEST_F(DramDeviceTest, BanksPipelineIndependently)
{
    // Two accesses to different banks issued together overlap their
    // row latencies; only the shared data bus serializes them.
    Tick done_a = 0;
    Tick done_b = 0;
    dev.access(0x0, false, 0, [&] { done_a = eq.now(); });
    dev.access(Addr(cfg.dramRowBytes), false, 0,
               [&] { done_b = eq.now(); });
    eq.run();
    const Tick xfer = cfg.dramTransferCycles();
    EXPECT_EQ(done_a, xfer + cfg.dramRowMissLatency);
    EXPECT_EQ(done_b, 2 * xfer + cfg.dramRowMissLatency);
}

TEST_F(DramDeviceTest, FrFcfsPrefersTheOpenRow)
{
    // Open row 0 of bank 0, then queue a row-miss request ahead of a
    // row-hit request: the picker reorders, completing the hit first.
    accessDone(0x0, false);
    const Addr miss_addr =
        Addr(cfg.dramRowBytes) * cfg.dramBanksPerMc;  // bank 0, row N
    std::vector<int> order;
    dev.access(miss_addr, false, 0, [&] { order.push_back(1); });
    dev.access(0x40, false, 0, [&] { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);  // the open-row request jumped the queue
    EXPECT_EQ(order[1], 1);
}

TEST_F(DramDeviceTest, RequestPoolIsReused)
{
    for (int i = 0; i < 100; ++i)
        accessDone(Addr(i % 4) * kLineBytes, i % 2 == 0);
    EXPECT_LE(dev.poolAllocated(), 2u);
    EXPECT_EQ(dev.poolFree(), dev.poolAllocated());
}

// --- Hybrid memory: the controller's DRAM tier -----------------------

class HybridMcTest : public ::testing::Test
{
  protected:
    HybridMcTest()
    {
        cfg.hybridMode = HybridMode::MemoryMode;
        cfg.dramCacheMBPerMc = 1;
        mc = std::make_unique<MemoryController>(0, eq, cfg, nvm,
                                                stats);
    }

    Tick
    readDone(Addr addr, Line *out = nullptr)
    {
        const Tick start = eq.now();
        Tick done = 0;
        mc->readLine(addr, ReadKind::Demand, [&, out](const Line &l) {
            done = eq.now();
            if (out)
                *out = l;
        });
        eq.run();
        return done - start;
    }

    SystemConfig cfg;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    std::unique_ptr<MemoryController> mc;
};

TEST_F(HybridMcTest, ReadMissFillsThenHitsAtDramLatency)
{
    Line data{};
    data[3] = 0x5a;
    nvm.writeLine(0x40000, data);

    Line back{};
    const Tick miss = readDone(0x40000, &back);
    EXPECT_EQ(back[3], 0x5a);
    EXPECT_EQ(stats.value("mc0", "dram_misses"), 1u);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 0u);

    const Tick hit = readDone(0x40000, &back);
    EXPECT_EQ(back[3], 0x5a);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 1u);
    EXPECT_LT(hit, miss);
    EXPECT_LT(hit, cfg.nvmReadLatency);
}

TEST_F(HybridMcTest, AbsorbedWritebackIsFastButNotDurable)
{
    Line data{};
    data[0] = 0x77;
    Tick acked = 0;
    mc->writeLine(0x50000, data, WriteKind::DataWb,
                  [&] { acked = eq.now(); });
    eq.run();
    // Acked at DRAM latency, well under the NVM device write.
    EXPECT_GT(acked, 0u);
    EXPECT_LT(acked, cfg.nvmWriteLatency);
    EXPECT_EQ(stats.value("mc0", "dram_wr_absorbed"), 1u);

    // The bytes are visible to reads...
    Line back{};
    readDone(0x50000, &back);
    EXPECT_EQ(back[0], 0x77);
    // ...but never reached NVM: the line is one power failure away
    // from vanishing.
    EXPECT_EQ(nvm.readLine(0x50000)[0], 0);
    EXPECT_EQ(mc->dramCache()->dirtyLines(), 1u);
}

TEST_F(HybridMcTest, FillPrefersWriteAcceptedDuringNvmReadWindow)
{
    // A read miss is in flight when a write-through write of the same
    // line is accepted (log/REDO traffic is not FIFO-ordered against
    // home-tile reads, so this race is reachable). writeThrough() was
    // a no-op -- the line was absent -- so the demand fill must
    // install the in-flight write's bytes, not the read's issue-time
    // snapshot; otherwise later reads hit a permanently stale clean
    // line.
    Line oldv{};
    oldv[0] = 1;
    nvm.writeLine(0xa0000, oldv);

    Tick read_done = 0;
    mc->readLine(0xa0000, ReadKind::Demand,
                 [&](const Line &) { read_done = eq.now(); });
    eq.run(100);  // read issued to the device, completion pending
    ASSERT_EQ(read_done, 0u);

    Line newv{};
    newv[0] = 2;
    mc->writeLine(0xa0000, newv, WriteKind::Flush, {});
    eq.run();
    ASSERT_GT(read_done, 0u);

    // The cached copy must carry the newer bytes.
    Line back{};
    readDone(0xa0000, &back);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 1u);
    EXPECT_EQ(back[0], 2);
    EXPECT_EQ(nvm.readLine(0xa0000)[0], 2);
}

TEST_F(HybridMcTest, PowerFailDropsDirtyDramLines)
{
    Line data{};
    data[0] = 0x42;
    mc->writeLine(0x60000, data, WriteKind::DataWb, {});
    eq.run();
    ASSERT_EQ(mc->dramCache()->dirtyLines(), 1u);

    mc->powerFail();
    eq.clear();
    // Only NVM-resident bytes survive: the absorbed write is gone.
    EXPECT_EQ(nvm.readLine(0x60000)[0], 0);
}

TEST_F(HybridMcTest, FlushWritesThroughToNvm)
{
    Line data{};
    data[7] = 0x99;
    bool durable = false;
    mc->writeLine(0x70000, data, WriteKind::Flush,
                  [&] { durable = true; });
    eq.run();
    EXPECT_TRUE(durable);
    EXPECT_EQ(nvm.readLine(0x70000)[7], 0x99);
}

TEST_F(HybridMcTest, LogWritesAreNeverAbsorbed)
{
    Line data{};
    data[1] = 0x13;
    mc->writeLine(0x80000, data, WriteKind::LogData, {});
    mc->writeLine(0x80040, data, WriteKind::LogHeader, {});
    eq.run();
    EXPECT_EQ(nvm.readLine(0x80000)[1], 0x13);
    EXPECT_EQ(nvm.readLine(0x80040)[1], 0x13);
    EXPECT_EQ(stats.value("mc0", "dram_wr_absorbed"), 0u);
}

TEST_F(HybridMcTest, WhenLineDurableCleansesDirtyDramLine)
{
    // A committed line whose only current copy is a dirty absorbed
    // writeback: whenLineDurable must push it to NVM before acking,
    // or "durable" would be a lie.
    Line data{};
    data[0] = 0xcd;
    mc->writeLine(0x90000, data, WriteKind::DataWb, {});
    eq.run();
    ASSERT_EQ(nvm.readLine(0x90000)[0], 0);

    bool durable = false;
    mc->whenLineDurable(0x90000, [&] { durable = true; });
    EXPECT_FALSE(durable);
    eq.run();
    EXPECT_TRUE(durable);
    EXPECT_EQ(nvm.readLine(0x90000)[0], 0xcd);
    EXPECT_EQ(stats.value("mc0", "dram_cleanses"), 1u);
    EXPECT_EQ(mc->dramCache()->dirtyLines(), 0u);
}

TEST_F(HybridMcTest, DirtyVictimWritesBackToNvm)
{
    // Direct-mapped 1 MB cache: two lines one cache-stride apart
    // conflict; the second absorb displaces the first, whose dirty
    // data must reach NVM through the ordinary write queue.
    SystemConfig cfg1 = cfg;
    cfg1.dramCacheAssoc = 1;
    MemoryController mc1(1, eq, cfg1, nvm, stats);
    const Addr stride =
        Addr(cfg1.dramCacheMBPerMc) * 1024 * 1024;

    Line a{};
    a[0] = 0xaa;
    Line b{};
    b[0] = 0xbb;
    mc1.writeLine(0x1000, a, WriteKind::DataWb, {});
    eq.run();
    mc1.writeLine(0x1000 + stride, b, WriteKind::DataWb, {});
    eq.run();

    EXPECT_EQ(stats.value("mc1", "wb_evictions"), 1u);
    EXPECT_EQ(nvm.readLine(0x1000)[0], 0xaa);      // evicted victim
    EXPECT_EQ(nvm.readLine(0x1000 + stride)[0], 0);  // still absorbed
    EXPECT_EQ(mc1.dramCache()->dirtyLines(), 1u);
}

TEST_F(HybridMcTest, AppDirectWindowBypassesTheCache)
{
    mc->setUncacheableWindow(0x100000, 0x200000);

    // Inside the window: straight to NVM, no DRAM involvement.
    Line data{};
    data[0] = 0x11;
    mc->writeLine(0x100000, data, WriteKind::DataWb, {});
    eq.run();
    EXPECT_EQ(nvm.readLine(0x100000)[0], 0x11);
    EXPECT_FALSE(mc->dramCache()->contains(0x100000));
    readDone(0x100000);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 0u);
    EXPECT_EQ(stats.value("mc0", "dram_misses"), 0u);

    // Outside the window: cached as usual.
    mc->writeLine(0x300000, data, WriteKind::DataWb, {});
    eq.run();
    EXPECT_TRUE(mc->dramCache()->contains(0x300000));
    EXPECT_EQ(nvm.readLine(0x300000)[0], 0);
}

TEST_F(HybridMcTest, GateBlocksDramVictimWriteback)
{
    // Invariant 2 end to end: a dirty DRAM victim's writeback is a
    // data write reaching NVM, so it must consult the ATOM write gate
    // like any other.
    SystemConfig cfg1 = cfg;
    cfg1.dramCacheAssoc = 1;
    MemoryController mc1(2, eq, cfg1, nvm, stats);
    const Addr stride = Addr(cfg1.dramCacheMBPerMc) * 1024 * 1024;

    TestGate gate;
    gate.locked = 0x2000;
    mc1.setWriteGate(&gate);

    Line a{};
    a[0] = 0xa1;
    mc1.writeLine(0x2000, a, WriteKind::DataWb, {});
    eq.run();
    mc1.writeLine(0x2000 + stride, a, WriteKind::DataWb, {});
    eq.run();
    EXPECT_EQ(nvm.readLine(0x2000)[0], 0);  // victim blocked

    gate.release();
    eq.run();
    EXPECT_EQ(nvm.readLine(0x2000)[0], 0xa1);
    mc1.setWriteGate(nullptr);
}

/**
 * The dense DRAM cache DramCache replaced: every way and its data
 * allocated up front in parallel set-major arrays, with the same scans.
 * The reference the sparse cache must match decision for decision.
 */
class DenseDramCache
{
  public:
    DenseDramCache(const SystemConfig &cfg, StatSet &stats,
                   const std::string &group)
        : _assoc(cfg.dramCacheAssoc),
          _sets(std::uint32_t(Addr(cfg.dramCacheMBPerMc) * 1024 * 1024 /
                              (Addr(_assoc) * kLineBytes))),
          _ways(std::size_t(_sets) * _assoc),
          _data(std::size_t(_sets) * _assoc),
          _statHits(stats.counter(group, "dram_hits")),
          _statMisses(stats.counter(group, "dram_misses")),
          _statWrAbsorbed(stats.counter(group, "dram_wr_absorbed")),
          _statWbEvictions(stats.counter(group, "wb_evictions"))
    {
    }

    bool contains(Addr addr) { return find(lineAlign(addr)) != nullptr; }

    bool
    isDirty(Addr addr)
    {
        const Way *way = find(lineAlign(addr));
        return way && way->dirty;
    }

    const Line *
    peek(Addr addr)
    {
        const Way *way = find(lineAlign(addr));
        return way ? &dataOf(way) : nullptr;
    }

    bool
    read(Addr addr, Line &out)
    {
        Way *way = find(lineAlign(addr));
        if (!way) {
            _statMisses.inc();
            return false;
        }
        _statHits.inc();
        way->lru = ++_useStamp;
        out = dataOf(way);
        return true;
    }

    DramCache::Victim
    fill(Addr addr, const Line &data)
    {
        const Addr line = lineAlign(addr);
        DramCache::Victim victim;
        if (Way *way = find(line)) {
            way->lru = ++_useStamp;
            return victim;
        }
        Way *base = &_ways[std::size_t(setOf(line)) * _assoc];
        Way *slot = nullptr;
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (!base[w].valid) {
                slot = &base[w];
                break;
            }
            if (!slot || base[w].lru < slot->lru)
                slot = &base[w];
        }
        if (slot->valid && slot->dirty) {
            victim.dirty = true;
            victim.addr = slot->tag;
            victim.data = dataOf(slot);
            _statWbEvictions.inc();
        }
        slot->tag = line;
        slot->valid = true;
        slot->dirty = false;
        slot->lru = ++_useStamp;
        dataOf(slot) = data;
        return victim;
    }

    DramCache::Victim
    absorb(Addr addr, const Line &data)
    {
        const Addr line = lineAlign(addr);
        _statWrAbsorbed.inc();
        if (Way *way = find(line)) {
            way->dirty = true;
            way->lru = ++_useStamp;
            dataOf(way) = data;
            return DramCache::Victim{};
        }
        DramCache::Victim victim = fill(line, data);
        find(line)->dirty = true;
        return victim;
    }

    void
    writeThrough(Addr addr, const Line &data)
    {
        if (Way *way = find(lineAlign(addr))) {
            way->lru = ++_useStamp;
            way->dirty = false;
            dataOf(way) = data;
        }
    }

    void
    markClean(Addr addr)
    {
        if (Way *way = find(lineAlign(addr)))
            way->dirty = false;
    }

    /** Valid dirty lines among the ways of @p sets. The caller lists
     * every set it has filled, so the count covers the whole array:
     * a never-filled set is all-invalid, and skipping those keeps a
     * per-step check from scanning all 16 K ways. */
    std::size_t
    dirtyLines(const std::vector<std::uint32_t> &sets) const
    {
        std::size_t n = 0;
        for (std::uint32_t set : sets) {
            const Way *base = &_ways[std::size_t(set) * _assoc];
            for (std::uint32_t w = 0; w < _assoc; ++w) {
                if (base[w].valid && base[w].dirty)
                    ++n;
            }
        }
        return n;
    }

    std::uint32_t
    setOf(Addr line) const
    {
        return std::uint32_t(lineNumber(line) % _sets);
    }

  private:
    struct Way
    {
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    Way *
    find(Addr line)
    {
        Way *base = &_ways[std::size_t(setOf(line)) * _assoc];
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (base[w].valid && base[w].tag == line)
                return &base[w];
        }
        return nullptr;
    }

    Line &
    dataOf(const Way *way)
    {
        return _data[std::size_t(way - _ways.data())];
    }

    const std::uint32_t _assoc;
    std::uint32_t _sets;
    std::vector<Way> _ways;
    std::vector<Line> _data;
    std::uint64_t _useStamp = 0;
    Counter &_statHits;
    Counter &_statMisses;
    Counter &_statWrAbsorbed;
    Counter &_statWbEvictions;
};

// Seeded random read / fill / absorb / writeThrough / markClean / peek
// / isDirty traffic: the sparse DRAM cache must return the same hits,
// the same victims, the same data and the same dirty-line count as the
// dense reference at every step, and allocate a set only at its first
// fill or absorb. Most traffic lands on 8 hot sets with twice as many
// lines as ways, so fills evict; one op in 256 goes to a random set.
TEST(DramCacheTest, MatchesDenseReferenceUnderRandomOps)
{
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::MemoryMode;
    cfg.dramCacheMBPerMc = 1;
    cfg.dramCacheAssoc = 16;
    StatSet stats;
    DramCache sparse(cfg, stats, "sparse");
    DenseDramCache dense(cfg, stats, "dense");
    const std::uint32_t sets = sparse.numSets();
    ASSERT_EQ(sets, 1024u);

    std::vector<bool> filled(sets, false);
    std::vector<std::uint32_t> filled_sets;
    Random rng(4242);
    for (std::uint32_t step = 0; step < 100000; ++step) {
        const std::uint32_t set = rng.below(256) != 0
                                      ? std::uint32_t(rng.below(8))
                                      : std::uint32_t(rng.below(sets));
        const Addr line_no = rng.below(2 * cfg.dramCacheAssoc) * sets + set;
        const Addr addr = line_no * kLineBytes + rng.below(kLineBytes);
        ASSERT_EQ(dense.setOf(lineAlign(addr)), set);
        Line data{};
        const std::uint64_t word = rng.next();
        std::memcpy(data.data(), &word, sizeof(word));

        DramCache::Victim sv, dv;
        switch (rng.below(8)) {
          case 0: {
            Line s_out{}, d_out{};
            ASSERT_EQ(sparse.read(addr, s_out), dense.read(addr, d_out))
                << "step " << step;
            EXPECT_EQ(s_out, d_out) << "step " << step;
            break;
          }
          case 1:
            sv = sparse.fill(addr, data);
            dv = dense.fill(addr, data);
            break;
          case 2:
            sv = sparse.absorb(addr, data);
            dv = dense.absorb(addr, data);
            break;
          case 3:
            sparse.writeThrough(addr, data);
            dense.writeThrough(addr, data);
            break;
          case 4:
            sparse.markClean(addr);
            dense.markClean(addr);
            break;
          case 5: {
            const Line *s_line = sparse.peek(addr);
            const Line *d_line = dense.peek(addr);
            ASSERT_EQ(s_line == nullptr, d_line == nullptr)
                << "step " << step;
            if (s_line) {
                EXPECT_EQ(*s_line, *d_line) << "step " << step;
            }
            break;
          }
          case 6:
            EXPECT_EQ(sparse.isDirty(addr), dense.isDirty(addr))
                << "step " << step;
            break;
          default:
            EXPECT_EQ(sparse.contains(addr), dense.contains(addr))
                << "step " << step;
            break;
        }
        EXPECT_EQ(sv.dirty, dv.dirty) << "step " << step;
        EXPECT_EQ(sv.addr, dv.addr) << "step " << step;
        EXPECT_EQ(sv.data, dv.data) << "step " << step;
        if (dense.contains(addr) && !filled[set]) {
            filled[set] = true;
            filled_sets.push_back(set);
        }
        EXPECT_EQ(sparse.setsAllocated(), filled_sets.size())
            << "step " << step;
        EXPECT_EQ(sparse.dirtyLines(), dense.dirtyLines(filled_sets))
            << "step " << step;
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }

    for (const char *name : {"dram_hits", "dram_misses",
                             "dram_wr_absorbed", "wb_evictions"}) {
        EXPECT_EQ(stats.value("sparse", name), stats.value("dense", name))
            << name;
    }
    EXPECT_GT(stats.value("sparse", "wb_evictions"), 0u);
    EXPECT_GT(filled_sets.size(), 8u);
    EXPECT_LT(filled_sets.size(), sets);
}

TEST(HybridAddressMapTest, AppDirectWindowFollowsThePolicy)
{
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::AppDirect;
    {
        AddressMap amap(cfg, Addr(16) * 1024 * 1024);
        // Log placement "direct": log + ADR bypass, data cached.
        EXPECT_EQ(amap.appDirectBase(), amap.logBase());
        EXPECT_EQ(amap.appDirectEnd(), amap.reservedEnd());
        EXPECT_FALSE(inAddrWindow(0x1000, amap.appDirectBase(),
                                  amap.appDirectEnd()));
        EXPECT_TRUE(inAddrWindow(amap.logBase(), amap.appDirectBase(),
                                 amap.appDirectEnd()));
        EXPECT_TRUE(inAddrWindow(amap.adrBase(0), amap.appDirectBase(),
                                 amap.appDirectEnd()));
    }
    cfg.appDirectRegion = AppDirectRegion::DataRegion;
    {
        AddressMap amap(cfg, Addr(16) * 1024 * 1024);
        EXPECT_EQ(amap.appDirectBase(), 0u);
        EXPECT_EQ(amap.appDirectEnd(), amap.logBase());
        EXPECT_TRUE(inAddrWindow(0x1000, amap.appDirectBase(),
                                 amap.appDirectEnd()));
        EXPECT_FALSE(inAddrWindow(amap.logBase(), amap.appDirectBase(),
                                  amap.appDirectEnd()));
    }
    cfg.hybridMode = HybridMode::NvmOnly;
    {
        // No tier at all: the window is the canonical empty [0, 0).
        AddressMap amap(cfg, Addr(16) * 1024 * 1024);
        EXPECT_EQ(amap.appDirectBase(), 0u);
        EXPECT_EQ(amap.appDirectEnd(), 0u);
        EXPECT_FALSE(inAddrWindow(0x1000, amap.appDirectBase(),
                                  amap.appDirectEnd()));
    }
}

} // namespace
} // namespace atomsim
