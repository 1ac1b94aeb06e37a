/**
 * @file
 * End-to-end integration tests: every design runs every micro-workload
 * on a small machine and the architectural state stays consistent.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

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
