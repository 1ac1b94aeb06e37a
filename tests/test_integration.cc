/**
 * @file
 * End-to-end integration tests: every design runs every micro-workload
 * on a small machine and the architectural state stays consistent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "workloads/btree_workload.hh"
#include "workloads/hash_workload.hh"
#include "workloads/kv_workload.hh"
#include "workloads/queue_workload.hh"
#include "workloads/rbtree_workload.hh"
#include "workloads/sdg_workload.hh"
#include "workloads/sps_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

namespace atomsim
{
namespace
{

SystemConfig
smallConfig(DesignKind design)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.bucketsPerMc = 256;
    cfg.design = design;
    return cfg;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const MicroParams &params)
{
    if (name == "hash")
        return std::make_unique<HashWorkload>(params);
    if (name == "queue")
        return std::make_unique<QueueWorkload>(params);
    if (name == "rbtree")
        return std::make_unique<RbTreeWorkload>(params);
    if (name == "btree")
        return std::make_unique<BTreeWorkload>(params);
    if (name == "sdg")
        return std::make_unique<SdgWorkload>(params);
    if (name == "sps")
        return std::make_unique<SpsWorkload>(params);
    return nullptr;
}

struct Combo
{
    const char *workload;
    DesignKind design;
};

class DesignWorkloadTest : public ::testing::TestWithParam<Combo>
{
};

TEST_P(DesignWorkloadTest, RunsToCompletionAndStaysConsistent)
{
    const Combo combo = GetParam();
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 16;
    params.txnsPerCore = 8;

    auto workload = makeWorkload(combo.workload, params);
    ASSERT_NE(workload, nullptr);

    Runner runner(smallConfig(combo.design), *workload,
                  params.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    const RunResult result = runner.run(Tick(500) * 1000 * 1000);

    EXPECT_EQ(result.txns, 4u * params.txnsPerCore);
    EXPECT_GT(result.cycles, 0u);

    // The architectural image must hold a consistent structure after
    // all transactions complete.
    DirectAccessor direct(runner.system().archMem());
    EXPECT_EQ(workload->checkConsistency(direct, 4), "");
}

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    std::string name = info.param.workload;
    name += "_";
    std::string design = designName(info.param.design);
    for (char &c : design) {
        if (c == '-')
            c = '_';
    }
    return name + design;
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignWorkloadTest,
    ::testing::Values(
        Combo{"hash", DesignKind::Base},
        Combo{"hash", DesignKind::Atom},
        Combo{"hash", DesignKind::AtomOpt},
        Combo{"hash", DesignKind::NonAtomic},
        Combo{"hash", DesignKind::Redo},
        Combo{"queue", DesignKind::Base},
        Combo{"queue", DesignKind::Atom},
        Combo{"queue", DesignKind::AtomOpt},
        Combo{"queue", DesignKind::NonAtomic},
        Combo{"queue", DesignKind::Redo},
        Combo{"rbtree", DesignKind::Atom},
        Combo{"rbtree", DesignKind::AtomOpt},
        Combo{"rbtree", DesignKind::Redo},
        Combo{"btree", DesignKind::Atom},
        Combo{"btree", DesignKind::AtomOpt},
        Combo{"btree", DesignKind::Redo},
        Combo{"sdg", DesignKind::Atom},
        Combo{"sdg", DesignKind::AtomOpt},
        Combo{"sps", DesignKind::Atom},
        Combo{"sps", DesignKind::NonAtomic}),
    comboName);

TEST(IntegrationTest, TpccRunsOnAtomOpt)
{
    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 16;
    scale.items = 128;
    TpccWorkload workload(scale);

    Runner runner(smallConfig(DesignKind::AtomOpt), workload, 6,
                  Addr(128) * 1024 * 1024);
    runner.setUp();
    const RunResult result = runner.run(Tick(500) * 1000 * 1000);
    EXPECT_EQ(result.txns, 4u * 6u);

    DirectAccessor direct(runner.system().archMem());
    EXPECT_EQ(workload.checkConsistency(direct, 4), "");
}

// REDO logs every in-region store as its own entry: a core has at
// most two stores in flight and never two to one line, so a store
// never finds an earlier one to the same line still waiting in the
// front end's buffer. TPC-C's regions store to the same lines over and
// over, so any combining would show here.
TEST(IntegrationTest, RedoLogsEveryInRegionStoreAsItsOwnEntry)
{
    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 16;
    scale.items = 128;
    TpccWorkload workload(scale);

    const SystemConfig cfg = smallConfig(DesignKind::Redo);
    Runner runner(cfg, workload, 4, Addr(128) * 1024 * 1024);
    runner.setUp();
    const RunResult result = runner.run(Tick(500) * 1000 * 1000);
    ASSERT_EQ(result.txns, 4u * 4u);

    const StatSet &stats = runner.system().stats();
    std::uint64_t log_requests = 0;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        log_requests +=
            stats.value("l1c" + std::to_string(c), "log_requests");
    ASSERT_GT(log_requests, 0u);
    EXPECT_EQ(stats.value("redo", "log_entries"), log_requests);
}

TEST(IntegrationTest, DurableStateMatchesArchitecturalAfterQuiesce)
{
    // After a full run every committed transaction's data has been
    // flushed; for undo designs the NVM image of workload data must
    // match the architectural image.
    MicroParams params;
    params.initialItems = 8;
    params.txnsPerCore = 6;
    HashWorkload workload(params);

    Runner runner(smallConfig(DesignKind::AtomOpt), workload,
                  params.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.run(Tick(500) * 1000 * 1000);

    // Check consistency on the *durable* image directly: everything
    // committed must be durable after the last commit completed.
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, 4), "");
}

/** Every byte of @p img below @p end. */
std::vector<std::uint8_t>
imageBytes(const DataImage &img, Addr end)
{
    std::vector<std::uint8_t> bytes(end);
    img.read(0, end, bytes.data());
    return bytes;
}

// The durable snapshot starts equal to the architectural image, and
// from then on each image sees only its own writes: trace generation
// writes the architectural image and never the durable one, and
// recovery the durable image and never the architectural one.
TEST(IntegrationTest, TraceGenerationAndRecoveryKeepTheImagesApart)
{
    MicroParams params;
    params.entryBytes = 4096;
    params.initialItems = 16;
    params.txnsPerCore = 8;
    SpsWorkload workload(params);

    const SystemConfig cfg = smallConfig(DesignKind::AtomOpt);
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(16) * 1024 * 1024);
    runner.setUp();
    System &sys = runner.system();
    const Addr end = sys.addressMap().reservedEnd();

    const std::vector<std::uint8_t> snapshot =
        imageBytes(sys.nvmImage(), end);
    ASSERT_EQ(imageBytes(sys.archMem(), end), snapshot);

    for (int round = 0; round < 2; ++round) {
        for (CoreId c = 0; c < cfg.numCores; ++c)
            ASSERT_TRUE(runner.next(c).has_value());
    }
    EXPECT_NE(imageBytes(sys.archMem(), end), snapshot);
    EXPECT_EQ(imageBytes(sys.nvmImage(), end), snapshot);

    runner.runUntilCrash(0.5, 5);
    const std::vector<std::uint8_t> arch = imageBytes(sys.archMem(), end);
    EXPECT_TRUE(sys.recover().criticalStateFound);
    EXPECT_EQ(imageBytes(sys.archMem(), end), arch);
}

// Runner's stop predicates read the tally the cores keep as they
// commit and finish. A run driven by advanceTo must stop on exactly
// the event after which a scan of every core finds them all done, and
// the tally's commit count must match the cores' own at every slice.
TEST(RunnerTest, StopsAtTheSameEventAsAPerCoreScan)
{
    const SystemConfig cfg;  // Table I: 32 cores, 4 MCs
    MicroParams params;
    params.initialItems = 16;
    params.txnsPerCore = 4;

    HashWorkload advanced_load(params);
    Runner advanced(cfg, advanced_load, params.txnsPerCore);
    advanced.setUp();
    advanced.advanceTo(kTickNever);

    HashWorkload stepped_load(params);
    Runner stepped(cfg, stepped_load, params.txnsPerCore);
    stepped.setUp();
    System &sys = stepped.system();
    const auto every_core_done = [&sys] {
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            if (!sys.core(c).done())
                return false;
        }
        return true;
    };
    while (!every_core_done() && sys.eventQueue().step()) {
    }
    ASSERT_TRUE(every_core_done());
    EXPECT_EQ(advanced.system().eventQueue().executed(),
              sys.eventQueue().executed());
    EXPECT_EQ(advanced.system().eventQueue().now(), sys.eventQueue().now());
    EXPECT_EQ(advanced.committed(), 32u * params.txnsPerCore);

    HashWorkload sliced_load(params);
    Runner sliced(cfg, sliced_load, params.txnsPerCore);
    sliced.setUp();
    const System &sliced_sys = sliced.system();
    std::uint32_t slices = 0;
    bool all_done = false;
    for (Tick limit = 2000; !all_done && limit <= Tick(100) * 1000 * 1000;
         limit += 2000) {
        sliced.advanceTo(limit);
        std::uint64_t per_core = 0;
        all_done = true;
        for (CoreId c = 0; c < sliced_sys.numCores(); ++c) {
            per_core += sliced_sys.core(c).committed();
            all_done = all_done && sliced_sys.core(c).done();
        }
        EXPECT_EQ(sliced.committed(), per_core)
            << "after the slice up to tick " << limit;
        ++slices;
    }
    EXPECT_TRUE(all_done);
    EXPECT_GT(slices, 4u);
    EXPECT_EQ(sliced.committed(), advanced.committed());
}

// Cache and DRAM-cache sets are allocated at their first fill, so a
// fresh Table-I hybrid machine holds no set storage, and a run
// allocates only sets it fills, never more than an array has.
TEST(SystemBuildTest, FreshMachineHoldsNoCacheStorage)
{
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::MemoryMode;
    MicroParams params;
    params.initialItems = 8;
    params.txnsPerCore = 2;
    HashWorkload workload(params);
    Runner runner(cfg, workload, params.txnsPerCore);
    System &sys = runner.system();

    struct Allocated
    {
        std::uint64_t l1 = 0, l2 = 0, dram = 0;
    };
    const auto allocated = [&] {
        Allocated a;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const CacheArray &arr = sys.l1(c).array();
            EXPECT_LE(arr.setsAllocated(), arr.numSets());
            a.l1 += arr.setsAllocated();
        }
        for (std::uint32_t t = 0; t < cfg.l2Tiles; ++t) {
            const CacheArray &arr = sys.l2Tile(t).array();
            EXPECT_LE(arr.setsAllocated(), arr.numSets());
            a.l2 += arr.setsAllocated();
        }
        for (McId m = 0; m < cfg.numMemCtrls; ++m) {
            const DramCache *dram = sys.memCtrl(m).dramCache();
            EXPECT_NE(dram, nullptr);
            if (!dram)
                continue;
            EXPECT_LE(dram->setsAllocated(), dram->numSets());
            a.dram += dram->setsAllocated();
        }
        return a;
    };

    const Allocated fresh = allocated();
    EXPECT_EQ(fresh.l1, 0u);
    EXPECT_EQ(fresh.l2, 0u);
    EXPECT_EQ(fresh.dram, 0u);

    runner.setUp();
    const RunResult result = runner.run(Tick(500) * 1000 * 1000);
    EXPECT_EQ(result.txns, cfg.numCores * params.txnsPerCore);

    const Allocated ran = allocated();
    EXPECT_GT(ran.l1, 0u);
    EXPECT_GT(ran.l2, 0u);
    EXPECT_GT(ran.dram, 0u);
}

// The 1024-tile serving preset (32x32 mesh, 16 MCs) runs the zipfian
// multi-tenant KV workload to completion, and every tenant commits.
// This is also the regression test for the structures that used to be
// super-linear in tiles: a >= 64-core sharer mask exercises the
// SharerSet wide path on every invalidation round.
TEST(ServingPresetTest, Mesh1024RunsToCompletion)
{
    SystemConfig cfg = SystemConfig::makeMeshPreset(1024);
    cfg.numTenants = 4;

    KvParams params;
    params.numTenants = cfg.numTenants;
    params.theta = 0.99;
    params.keysPerTenant = 256;
    params.insertsPerCore = 2;
    params.txnsPerCore = 1;

    KvWorkload workload(params);
    Runner runner(cfg, workload, params.txnsPerCore);
    runner.setUp();
    const RunResult result = runner.run();
    EXPECT_GT(result.txns, 0u);

    std::uint32_t tenants_seen = 0;
    for (const auto &[name, value] :
         std::as_const(runner.system()).stats().dump()) {
        if (name.rfind("tenant", 0) == 0 &&
            name.find(".commits") != std::string::npos && value > 0)
            ++tenants_seen;
    }
    EXPECT_EQ(tenants_seen, 4u);
}

} // namespace
} // namespace atomsim
