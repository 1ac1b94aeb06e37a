/**
 * @file
 * Flash-tier tests: the forwarding-map codec, the SSD queue pairs and
 * channel/die timing model, the destage pipeline against a real
 * memory controller, and end-to-end crash/recovery under the three
 * durability policies.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "mem/phys_mem.hh"
#include "mem/ssd_device.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workloads/hash_workload.hh"

namespace atomsim
{
namespace
{

// ---------------------------------------------------------------------
// Forwarding-map codec
// ---------------------------------------------------------------------

TEST(FwdmapCodecTest, RoundTrip)
{
    std::uint64_t w0, w1;
    fwdmap::encode(Addr(0x7f3000), 42, w0, w1);
    const auto m = fwdmap::decode(w0, w1);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->first, Addr(0x7f3000));
    EXPECT_EQ(m->second, 42u);
}

TEST(FwdmapCodecTest, UnsetAndClearedEntriesAreInvalid)
{
    EXPECT_FALSE(fwdmap::decode(0, 0).has_value());
}

TEST(FwdmapCodecTest, TornCombinationsAreInvalid)
{
    // NVM tears at 8-byte granularity: any mix of one persisted word
    // and one stale word must parse as invalid (= NVM authoritative).
    std::uint64_t w0, w1;
    fwdmap::encode(Addr(0x20000), 7, w0, w1);
    EXPECT_FALSE(fwdmap::decode(w0, 0).has_value());
    EXPECT_FALSE(fwdmap::decode(0, w1).has_value());

    std::uint64_t x0, x1;
    fwdmap::encode(Addr(0x31000), 9, x0, x1);
    EXPECT_FALSE(fwdmap::decode(w0, x1).has_value());
    EXPECT_FALSE(fwdmap::decode(x0, w1).has_value());

    // Corruption inside either word fails the checksum.
    EXPECT_FALSE(fwdmap::decode(w0 ^ 0x1000, w1).has_value());
    EXPECT_FALSE(fwdmap::decode(w0, w1 ^ (1ull << 40)).has_value());
}

TEST(FwdmapCodecTest, ChecksumNeverZero)
{
    for (std::uint64_t w0 : {0ull, 1ull, 0x5000ull, ~0ull}) {
        for (std::uint32_t fp : {0u, 1u, 255u, ~0u})
            EXPECT_NE(fwdmap::checksum(w0, fp), 0u);
    }
}

TEST(FwdmapRehydrateTest, RestoresAndClearsIdempotently)
{
    SystemConfig cfg;
    cfg.ssdTier = true;
    cfg.ssdFlashPagesPerMc = 64;
    AddressMap amap(cfg, Addr(16) * 1024 * 1024);
    DataImage nvm;
    DataImage flash;

    for (Addr off = 0; off < kPageBytes; off += 8)
        flash.store64(Addr(3) * kPageBytes + off, 0x1111 * (off + 1));
    const Addr page = 0x4000;
    std::uint64_t w0, w1;
    fwdmap::encode(page, 3, w0, w1);
    const Addr entry = amap.ssdMapPage(0, 0);
    nvm.store64(entry, w0);
    nvm.store64(entry + 8, w1);

    EXPECT_EQ(fwdmap::rehydrate(nvm, amap, 0, flash), 1u);
    for (Addr off = 0; off < kPageBytes; off += 8) {
        EXPECT_EQ(nvm.load64(page + off),
                  flash.load64(Addr(3) * kPageBytes + off));
    }
    // The entry clears as it restores, so a crash during recovery and
    // a second full pass are both harmless no-ops.
    EXPECT_EQ(nvm.load64(entry), 0u);
    EXPECT_EQ(nvm.load64(entry + 8), 0u);
    EXPECT_EQ(fwdmap::rehydrate(nvm, amap, 0, flash), 0u);
}

// ---------------------------------------------------------------------
// SsdDevice: queue pairs + channel/die timing
// ---------------------------------------------------------------------

SystemConfig
deviceCfg()
{
    SystemConfig cfg;
    cfg.ssdTier = true;
    cfg.ssdChannels = 2;
    cfg.ssdQueueDepth = 4;
    cfg.ssdFlashPagesPerMc = 64;
    return cfg;
}

class SsdDeviceTest : public ::testing::Test
{
  protected:
    SsdDeviceTest() : cfg(deviceCfg()), ssd(0, eq, cfg, stats) {}

    SsdDevice::Cmd *
    makeWrite(std::uint32_t flash_page, std::uint8_t fill)
    {
        SsdDevice::Cmd *cmd = ssd.acquireCmd();
        cmd->isWrite = true;
        cmd->flashPage = flash_page;
        cmd->data.fill(fill);
        return cmd;
    }

    SystemConfig cfg;
    EventQueue eq;
    StatSet stats;
    SsdDevice ssd;
};

TEST_F(SsdDeviceTest, NothingRunsBeforeDoorbell)
{
    bool done = false;
    SsdDevice::Cmd *cmd = makeWrite(0, 0xAA);
    cmd->done = [&done](SsdDevice::Cmd &) { done = true; };
    ASSERT_TRUE(ssd.submit(0, cmd));
    eq.run();
    EXPECT_FALSE(done);
    EXPECT_EQ(ssd.sqDepth(0), 1u);

    ssd.ringDoorbell(0);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ssd.outstanding(0), 0u);
    EXPECT_EQ(ssd.flash().load64(0), 0xAAAAAAAAAAAAAAAAull);
}

TEST_F(SsdDeviceTest, SubmitBoundsAtQueueDepthWithoutOwnership)
{
    // Even flash pages steer to channel 0 (qpOf = page % channels).
    std::vector<SsdDevice::Cmd *> cmds;
    for (std::uint32_t i = 0; i < cfg.ssdQueueDepth; ++i) {
        SsdDevice::Cmd *cmd = makeWrite(2 * i, std::uint8_t(i));
        ASSERT_EQ(ssd.qpOf(cmd->flashPage), 0u);
        ASSERT_TRUE(ssd.submit(0, cmd));
        cmds.push_back(cmd);
    }
    // The pair is full: the submit fails and the caller keeps the node.
    SsdDevice::Cmd *extra = makeWrite(8, 0xFF);
    EXPECT_FALSE(ssd.submit(0, extra));
    EXPECT_EQ(stats.value("ssd0", "sq_stalls"), 1u);
    ssd.releaseCmd(extra);

    ssd.ringDoorbell(0);
    eq.run();
    EXPECT_EQ(ssd.outstanding(0), 0u);
    EXPECT_EQ(ssd.programs(), std::uint64_t(cfg.ssdQueueDepth));
    // Zero leaks: every node acquired is back on the free list.
    EXPECT_EQ(ssd.poolAllocated(), ssd.poolFree());
}

TEST_F(SsdDeviceTest, CompletionsAreFifoPerQueuePair)
{
    // Same channel, same die (pages 0, 4, 8, 12 with 2 channels and
    // 2 dies): the commands fully serialize, so completions must come
    // back in submission order.
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < 4; ++i) {
        SsdDevice::Cmd *cmd = makeWrite(4 * i, std::uint8_t(i));
        cmd->done = [&order, i](SsdDevice::Cmd &) { order.push_back(i); };
        ASSERT_TRUE(ssd.submit(0, cmd));
    }
    ssd.ringDoorbell(0);
    eq.run();
    ASSERT_EQ(order.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(SsdDeviceTest, SameDieProgramsSerializeOnTprog)
{
    // Pages 0 and 4 land on (channel 0, die 0): the second program
    // waits out the first's tPROG. Pages 0 and 2 land on different
    // dies of channel 0: they overlap everywhere but the bus transfer.
    auto run_pair = [this](std::uint32_t fp_a,
                           std::uint32_t fp_b) -> Tick {
        Tick t_a = 0, t_b = 0;
        SsdDevice::Cmd *a = makeWrite(fp_a, 0x11);
        a->done = [this, &t_a](SsdDevice::Cmd &) { t_a = eq.now(); };
        SsdDevice::Cmd *b = makeWrite(fp_b, 0x22);
        b->done = [this, &t_b](SsdDevice::Cmd &) { t_b = eq.now(); };
        EXPECT_TRUE(ssd.submit(0, a));
        EXPECT_TRUE(ssd.submit(0, b));
        ssd.ringDoorbell(0);
        eq.run();
        EXPECT_GT(t_b, t_a);
        return t_b - t_a;
    };
    const Tick same_die = run_pair(0, 4);
    EXPECT_GE(same_die + Tick(cfg.ssdPollInterval),
              Tick(cfg.ssdProgramLatency));
    const Tick cross_die = run_pair(8, 10);
    EXPECT_LT(cross_die, Tick(cfg.ssdProgramLatency));
}

TEST_F(SsdDeviceTest, ReadSensesThenTransfersAndReturnsData)
{
    SsdDevice::Cmd *w = makeWrite(9, 0xAB);
    ASSERT_TRUE(ssd.submit(ssd.qpOf(9), w));
    ssd.ringDoorbell(ssd.qpOf(9));
    eq.run();

    const Tick start = eq.now();
    Tick t_read = 0;
    std::uint8_t byte = 0;
    SsdDevice::Cmd *r = ssd.acquireCmd();
    r->flashPage = 9;
    r->done = [this, &t_read, &byte](SsdDevice::Cmd &c) {
        t_read = eq.now();
        byte = c.data[17];
    };
    ASSERT_TRUE(ssd.submit(ssd.qpOf(9), r));
    ssd.ringDoorbell(ssd.qpOf(9));
    eq.run();
    EXPECT_EQ(byte, 0xAB);
    EXPECT_GE(t_read - start, Tick(cfg.ssdReadLatency));
    EXPECT_EQ(ssd.reads(), 1u);
}

TEST_F(SsdDeviceTest, PowerFailDropsRingsAndKeepsFlash)
{
    SsdDevice::Cmd *w = makeWrite(5, 0xAB);
    ASSERT_TRUE(ssd.submit(ssd.qpOf(5), w));
    ssd.ringDoorbell(ssd.qpOf(5));
    eq.run();
    ASSERT_EQ(ssd.flash().load64(Addr(5) * kPageBytes),
              0xABABABABABABABABull);

    // A submitted-but-unreaped command dies with the power: its
    // callback must never fire.
    bool done = false;
    SsdDevice::Cmd *lost = makeWrite(7, 0xCD);
    lost->done = [&done](SsdDevice::Cmd &) { done = true; };
    ASSERT_TRUE(ssd.submit(ssd.qpOf(7), lost));
    ssd.ringDoorbell(ssd.qpOf(7));
    eq.clear();
    eq.run();
    EXPECT_FALSE(done);
    // Flash is the non-volatile medium: page 5 survives, page 7 was
    // never programmed.
    EXPECT_EQ(ssd.flash().load64(Addr(5) * kPageBytes),
              0xABABABABABABABABull);
    EXPECT_EQ(ssd.flash().load64(Addr(7) * kPageBytes), 0u);
}

// ---------------------------------------------------------------------
// DestageEngine pipeline against a real controller
// ---------------------------------------------------------------------

SystemConfig
pipelineCfg()
{
    SystemConfig cfg;
    cfg.ssdTier = true;
    cfg.ssdChannels = 2;
    cfg.ssdQueueDepth = 8;
    cfg.ssdFlashPagesPerMc = 64;
    cfg.ssdColdPageWatermark = 2;
    cfg.ssdMaxDestageBacklog = 4;
    return cfg;
}

class DestagePipelineTest : public ::testing::Test
{
  protected:
    DestagePipelineTest()
        : cfg(pipelineCfg()),
          amap(cfg, Addr(16) * 1024 * 1024),
          mc(0, eq, cfg, nvm, stats),
          ssd(0, eq, cfg, stats),
          eng(0, eq, cfg, amap, mc, ssd, nvm, stats)
    {
        mc.setDestageEngine(&eng);
    }

    ~DestagePipelineTest() override { mc.setDestageEngine(nullptr); }

    void
    fillPage(Addr page, std::uint64_t seed)
    {
        for (Addr off = 0; off < kPageBytes; off += 8)
            nvm.store64(page + off, seed ^ (off * 0x9E37ull));
    }

    /** Destage @p page and run the pipeline to Forwarded. */
    void
    forward(Addr page, bool is_log = false)
    {
        ASSERT_TRUE(eng.requestDestage(page, is_log));
        ASSERT_EQ(eng.pageState(page), DestageEngine::PageState::Programming);
        eq.run();
        ASSERT_EQ(eng.pageState(page), DestageEngine::PageState::Forwarded);
    }

    SystemConfig cfg;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    AddressMap amap;
    MemoryController mc;
    SsdDevice ssd;
    DestageEngine eng;
};

TEST_F(DestagePipelineTest, DestageForwardsScrubsAndMapsDurably)
{
    const Addr page = 0x10000;
    fillPage(page, 0x5eed);
    const std::uint64_t first_word = nvm.load64(page);
    forward(page);

    EXPECT_EQ(eng.forwardedPages(), 1u);
    EXPECT_EQ(eng.pagesDestaged(), 1u);
    EXPECT_EQ(stats.value("mc0", "destage_pages"), 1u);

    // NVM surrendered the page: poison, not the old bytes.
    EXPECT_EQ(nvm.load64(page), 0x5A5A5A5A5A5A5A5Aull);
    // The first destage takes slot 0 and flash page 0 (deterministic
    // smallest-first pop): flash holds the snapshot, and the durable
    // NVM entry decodes back to exactly this mapping.
    EXPECT_EQ(ssd.flash().load64(0), first_word);
    const Addr entry = amap.ssdMapPage(0, 0);
    const auto m = fwdmap::decode(nvm.load64(entry), nvm.load64(entry + 8));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->first, page);
    EXPECT_EQ(m->second, 0u);
}

TEST_F(DestagePipelineTest, ReadOfForwardedPagePromotesAndReplays)
{
    const Addr page = 0x10000;
    fillPage(page, 0x5eed);
    const Line original = nvm.readLine(page + 2 * kLineBytes);
    forward(page);

    bool read = false;
    mc.readLine(page + 2 * kLineBytes, ReadKind::Demand,
                [&](const Line &line) {
                    read = true;
                    EXPECT_EQ(line, original);
                });
    // The access parked and the promotion is already in flight.
    EXPECT_FALSE(read);
    EXPECT_EQ(eng.pageState(page), DestageEngine::PageState::Promoting);
    eq.run();
    EXPECT_TRUE(read);
    EXPECT_FALSE(eng.pageState(page).has_value());
    EXPECT_EQ(eng.promotions(), 1u);
    EXPECT_EQ(ssd.reads(), 1u);
    // NVM is whole again and the durable entry is cleared.
    EXPECT_EQ(nvm.load64(page), 0x5eedull ^ 0ull);
    const Addr entry = amap.ssdMapPage(0, 0);
    EXPECT_FALSE(
        fwdmap::decode(nvm.load64(entry), nvm.load64(entry + 8))
            .has_value());
}

TEST_F(DestagePipelineTest, WriteOfForwardedPagePromotesAndApplies)
{
    const Addr page = 0x10000;
    fillPage(page, 0x5eed);
    forward(page);

    Line data{};
    data[0] = 0x77;
    bool wrote = false;
    mc.writeLine(page, data, WriteKind::DataWb, [&] { wrote = true; });
    EXPECT_FALSE(wrote);
    eq.run();
    EXPECT_TRUE(wrote);
    EXPECT_FALSE(eng.pageState(page).has_value());
    // The written line carries the new data; the rest of the page came
    // back from flash.
    EXPECT_EQ(nvm.readLine(page)[0], 0x77);
    EXPECT_EQ(nvm.load64(page + kLineBytes),
              0x5eedull ^ (kLineBytes * 0x9E37ull));
}

TEST_F(DestagePipelineTest, WriteDuringProgrammingCancelsTheDestage)
{
    const Addr page = 0x10000;
    fillPage(page, 0x5eed);
    ASSERT_TRUE(eng.requestDestage(page, false));
    ASSERT_EQ(eng.pageState(page), DestageEngine::PageState::Programming);

    // The snapshot is in flight; this write makes it stale. It must
    // pass straight through (NVM never stopped being authoritative).
    Line data{};
    data[0] = 0x77;
    bool wrote = false;
    mc.writeLine(page, data, WriteKind::DataWb, [&] { wrote = true; });
    eq.run();
    EXPECT_TRUE(wrote);
    EXPECT_FALSE(eng.pageState(page).has_value());
    EXPECT_EQ(eng.forwardedPages(), 0u);
    EXPECT_EQ(stats.value("mc0", "destage_cancelled"), 1u);
    EXPECT_EQ(nvm.readLine(page)[0], 0x77);
    // The slot and flash page were reclaimed: a retry starts cleanly.
    EXPECT_TRUE(eng.requestDestage(page, false));
    eq.run();
    EXPECT_EQ(eng.forwardedPages(), 1u);
}

TEST_F(DestagePipelineTest, TruncateDropRestoresForwardedLogPage)
{
    const Addr bucket = amap.bucketBase(0, 0);
    fillPage(bucket, 0x10c);
    const std::uint64_t first_word = nvm.load64(bucket);
    forward(bucket, true);
    EXPECT_EQ(stats.value("mc0", "destage_log_pages"), 1u);

    bool fired = false;
    eng.onTruncate({}, {bucket}, [&] { fired = true; });
    EXPECT_TRUE(fired);  // strict: truncation never waits on destage
    eq.run();
    EXPECT_FALSE(eng.pageState(bucket).has_value());
    // The freed bucket reads exactly as if the destage never happened.
    EXPECT_EQ(nvm.load64(bucket), first_word);
    const Addr entry = amap.ssdMapPage(0, 0);
    EXPECT_FALSE(
        fwdmap::decode(nvm.load64(entry), nvm.load64(entry + 8))
            .has_value());
}

TEST_F(DestagePipelineTest, CrashLeavesDurableMapRehydratable)
{
    const Addr page = 0x10000;
    fillPage(page, 0x5eed);
    DataImage reference = nvm.clone();
    forward(page);

    // Power failure: every pending event is dropped, and only the NVM
    // and flash images remain.
    eq.clear();

    // What the crash left behind -- poisoned NVM page, durable entry,
    // flash snapshot -- rehydrates back to the pre-destage bytes.
    EXPECT_EQ(fwdmap::rehydrate(nvm, amap, 0, ssd.flash()), 1u);
    for (Addr off = 0; off < kPageBytes; off += 8)
        EXPECT_EQ(nvm.load64(page + off), reference.load64(page + off));
    EXPECT_EQ(fwdmap::rehydrate(nvm, amap, 0, ssd.flash()), 0u);
}

TEST(DestageBacklogTest, BalancedTruncationWaitsForBacklogBound)
{
    SystemConfig cfg = pipelineCfg();
    cfg.durabilityPolicy = DurabilityPolicy::Balanced;
    cfg.ssdMaxDestageBacklog = 0;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    AddressMap amap(cfg, Addr(16) * 1024 * 1024);
    MemoryController mc(0, eq, cfg, nvm, stats);
    SsdDevice ssd(0, eq, cfg, stats);
    DestageEngine eng(0, eq, cfg, amap, mc, ssd, nvm, stats);
    mc.setDestageEngine(&eng);

    // A cold log segment is in flight when the truncation completes:
    // with a zero backlog bound the completion parks until the destage
    // reaches its durable map entry.
    eng.onLogSegmentCold(amap.bucketBase(0, 1));
    ASSERT_EQ(eng.destagesInFlight(), 1u);
    bool fired = false;
    eng.onTruncate({}, {}, [&] { fired = true; });
    EXPECT_FALSE(fired);
    EXPECT_EQ(stats.value("mc0", "destage_trunc_waits"), 1u);
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eng.backlog(), 0u);
    mc.setDestageEngine(nullptr);
}

// ---------------------------------------------------------------------
// End-to-end: destage + crash + recovery under the three policies
// ---------------------------------------------------------------------

SystemConfig
ssdCrashConfig(DesignKind design, DurabilityPolicy policy)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = design;
    cfg.ssdTier = true;
    cfg.durabilityPolicy = policy;
    // Destage aggressively: every page a truncated update touched is
    // cold immediately, so even a small working set exercises the
    // whole pipeline (including promotion churn on re-access). Short
    // flash latencies let destages complete within these small runs.
    cfg.ssdColdPageWatermark = 0;
    cfg.ssdFlashPagesPerMc = 256;
    cfg.ssdMaxDestageBacklog = 4;
    cfg.ssdReadLatency = 2000;
    cfg.ssdProgramLatency = 5000;
    return cfg;
}

MicroParams
ssdParams(std::uint64_t seed)
{
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 32;
    params.txnsPerCore = 12;
    params.seed = seed;
    return params;
}

std::uint64_t
imageHash(const DataImage &img, Addr base, Addr bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (Addr a = base; a < base + bytes; a += kLineBytes) {
        const Line line = img.readLine(a);
        for (std::uint8_t b : line) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

TEST(SsdEndToEndTest, CleanRunDestagesAndStrictLosesNothing)
{
    const MicroParams params = ssdParams(9);
    HashWorkload workload(params);
    SystemConfig cfg =
        ssdCrashConfig(DesignKind::Atom, DurabilityPolicy::Strict);
    cfg.seed = 9;
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.run();

    // The last truncations queued destages whose flash programs are
    // still in flight when the final core finishes: let them drain
    // before taking stock.
    EventQueue &eq = runner.system().eventQueue();
    eq.run(eq.now() + 1000 * 1000);

    std::uint64_t destaged = 0;
    for (McId m = 0; m < cfg.numMemCtrls; ++m)
        destaged += runner.system().destage(m)->pagesDestaged();
    EXPECT_GT(destaged, 0u);

    runner.system().powerFail();
    const RecoveryReport report = runner.system().recover();
    EXPECT_TRUE(report.criticalStateFound);
    // Strict: every acked commit survived the crash.
    EXPECT_EQ(report.incompleteUpdates, 0u);
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, cfg.numCores), "");
}

class SsdPolicyCrashTest
    : public ::testing::TestWithParam<DurabilityPolicy>
{
};

TEST_P(SsdPolicyCrashTest, MidDestageCrashRecoversConsistently)
{
    const DurabilityPolicy policy = GetParam();
    const MicroParams params = ssdParams(5);
    HashWorkload workload(params);
    SystemConfig cfg = ssdCrashConfig(DesignKind::Atom, policy);
    cfg.seed = 5;
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.runUntilDestageCrash(5);

    const RecoveryReport report = runner.system().recover();
    EXPECT_TRUE(report.criticalStateFound);
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, cfg.numCores), "")
        << "policy=" << durabilityPolicyName(policy)
        << " rolledBack=" << report.incompleteUpdates
        << " rehydrated=" << report.pagesRehydrated;
    if (policy == DurabilityPolicy::Eventual) {
        // The volatile staging window never exceeded its bound, so the
        // recovery-point loss is bounded by construction.
        EXPECT_LE(runner.system().designContext().stagedPeak(),
                  cfg.ssdStagingWindow);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SsdPolicyCrashTest,
    ::testing::Values(DurabilityPolicy::Strict,
                      DurabilityPolicy::Balanced,
                      DurabilityPolicy::Eventual),
    [](const ::testing::TestParamInfo<DurabilityPolicy> &info) {
        return std::string(durabilityPolicyName(info.param));
    });

TEST(SsdEventualPolicyTest, StagedLossIsBoundedByWindow)
{
    const MicroParams params = ssdParams(13);
    HashWorkload workload(params);
    SystemConfig cfg =
        ssdCrashConfig(DesignKind::Atom, DurabilityPolicy::Eventual);
    cfg.seed = 13;
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.run();

    // Early acks actually happened, and the window bound held.
    EXPECT_GT(runner.system().stats().value("design", "staged_acks"), 0u);
    EXPECT_LE(runner.system().designContext().stagedPeak(),
              cfg.ssdStagingWindow);

    // Crash right at completion: the commits still in the staging
    // window are the only acked work recovery may roll back.
    runner.system().powerFail();
    const RecoveryReport report = runner.system().recover();
    EXPECT_TRUE(report.criticalStateFound);
    EXPECT_LE(report.incompleteUpdates, cfg.ssdStagingWindow);
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, cfg.numCores), "");
}

struct DestageCrashOutcome
{
    Tick crashTick = 0;
    std::uint64_t imageHashValue = 0;
    std::uint32_t rehydrated = 0;
    std::uint32_t incomplete = 0;
};

DestageCrashOutcome
destageCrashOnce(DurabilityPolicy policy, std::uint64_t seed)
{
    const MicroParams params = ssdParams(seed);
    HashWorkload workload(params);
    SystemConfig cfg = ssdCrashConfig(DesignKind::Atom, policy);
    cfg.seed = seed;
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    DestageCrashOutcome out;
    out.crashTick = runner.runUntilDestageCrash(seed);
    const RecoveryReport report = runner.system().recover();
    out.rehydrated = report.pagesRehydrated;
    out.incomplete = report.incompleteUpdates;
    out.imageHashValue = imageHash(runner.system().nvmImage(),
                                   kPageBytes, Addr(2) * 1024 * 1024);
    return out;
}

TEST(SsdDeterminismTest, DestageCrashRecoveryIsDeterministic)
{
    // Two identical mid-destage crash runs must produce byte-identical
    // recovered images and identical recovery reports.
    const DestageCrashOutcome a =
        destageCrashOnce(DurabilityPolicy::Balanced, 11);
    const DestageCrashOutcome b =
        destageCrashOnce(DurabilityPolicy::Balanced, 11);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.imageHashValue, b.imageHashValue);
    EXPECT_EQ(a.rehydrated, b.rehydrated);
    EXPECT_EQ(a.incomplete, b.incomplete);
}

TEST(SsdIdempotenceTest, SecondRecoveryPassIsANoOp)
{
    // Crash mid-destage, recover, then run the whole routine again as
    // if recovery itself had crashed after completing: rehydration
    // finds no valid entries (they cleared on the first pass) and the
    // data image does not move.
    const MicroParams params = ssdParams(7);
    HashWorkload workload(params);
    SystemConfig cfg =
        ssdCrashConfig(DesignKind::Atom, DurabilityPolicy::Balanced);
    cfg.seed = 7;
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.runUntilDestageCrash(7);

    const RecoveryReport first = runner.system().recover();
    EXPECT_TRUE(first.criticalStateFound);
    const std::uint64_t h1 = imageHash(runner.system().nvmImage(),
                                       kPageBytes, Addr(2) * 1024 * 1024);
    const RecoveryReport second = runner.system().recover();
    EXPECT_EQ(second.pagesRehydrated, 0u);
    EXPECT_EQ(imageHash(runner.system().nvmImage(), kPageBytes,
                        Addr(2) * 1024 * 1024),
              h1);
}

} // namespace
} // namespace atomsim
