/**
 * @file
 * Functional tests for the workload data structures: correctness of
 * each persistent structure against reference behavior, recorder
 * mechanics, heap behavior, and the B+-tree property sweep.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workloads/btree_workload.hh"
#include "workloads/hash_workload.hh"
#include "workloads/heap.hh"
#include "workloads/kv_workload.hh"
#include "workloads/queue_workload.hh"
#include "workloads/rbtree_workload.hh"
#include "workloads/sdg_workload.hh"
#include "workloads/sps_workload.hh"
#include "workloads/tpcc/bplus_tree.hh"
#include "workloads/tpcc/tpcc_workload.hh"
#include "workloads/workload.hh"

namespace atomsim
{
namespace
{

TEST(RecorderTest, SplitsAccessesAtLineAndWordBoundaries)
{
    DataImage img;
    Transaction txn;
    RecordingAccessor rec(img, txn);

    std::uint8_t buf[32] = {};
    rec.storeBytes(kLineBytes - 8, sizeof(buf), buf);  // crosses a line
    // 32 bytes in <=8-byte chunks: 4 ops, none crossing a line.
    ASSERT_EQ(txn.ops.size(), 4u);
    for (const auto &op : txn.ops) {
        EXPECT_EQ(op.kind, OpKind::Store);
        EXPECT_LE(op.size, 8u);
        EXPECT_EQ(lineAlign(op.addr), lineAlign(op.addr + op.size - 1));
    }
}

TEST(RecorderTest, TracksModifiedLinesOnlyInsideAtomic)
{
    DataImage img;
    Transaction txn;
    RecordingAccessor rec(img, txn);

    rec.store64(0x100, 1);  // outside: not tracked
    rec.atomicBegin();
    rec.store64(0x200, 2);
    rec.store64(0x208, 3);   // same line: tracked once
    rec.store64(0x1000, 4);
    rec.atomicEnd();
    rec.store64(0x300, 5);  // outside again

    EXPECT_EQ(txn.modifiedLines,
              (std::vector<Addr>{0x200, 0x1000}));
    EXPECT_EQ(img.load64(0x208), 3u);  // functional effect applied
}

TEST(RecorderTest, LoadsReturnFunctionalValues)
{
    DataImage img;
    img.store64(0x500, 77);
    Transaction txn;
    RecordingAccessor rec(img, txn);
    EXPECT_EQ(rec.load64(0x500), 77u);
    ASSERT_EQ(txn.ops.size(), 1u);
    EXPECT_EQ(txn.ops[0].kind, OpKind::Load);
}

TEST(HeapTest, AlignmentAndDisjointArenas)
{
    PersistentHeap heap(kPageBytes, Addr(64) * 1024 * 1024, 2);
    const Addr a = heap.alloc(0, 100);          // >= line: line-aligned
    const Addr b = heap.alloc(0, 8);
    const Addr c = heap.alloc(1, 100);
    EXPECT_EQ(a % kLineBytes, 0u);
    EXPECT_NE(a, c);
    EXPECT_NE(a, b);
    // Arenas are chunked: different cores live in different chunks.
    EXPECT_NE(a >> 18, c >> 18);
}

TEST(HeapTest, FreeListReusesBlocks)
{
    PersistentHeap heap(kPageBytes, Addr(64) * 1024 * 1024, 1);
    const Addr a = heap.alloc(0, 256);
    heap.free(0, a, 256);
    const Addr b = heap.alloc(0, 256);
    EXPECT_EQ(a, b);
}

/** Every workload must pass its own consistency check after a purely
 * functional run, and report inconsistency when state is corrupted. */
class WorkloadFunctionalTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    static std::unique_ptr<Workload>
    make(const std::string &name, const MicroParams &params)
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
};

TEST_P(WorkloadFunctionalTest, ManyTransactionsStayConsistent)
{
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 32;
    auto workload = make(GetParam(), params);
    ASSERT_NE(workload, nullptr);

    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(256) * 1024 * 1024, 2);
    workload->init(mem, heap, 2);
    EXPECT_EQ(workload->checkConsistency(mem, 2), "");

    Random rng(7);
    for (int i = 0; i < 200; ++i) {
        Transaction txn;
        RecordingAccessor rec(img, txn);
        workload->runTransaction(CoreId(i % 2), rec, rng);
        EXPECT_FALSE(txn.ops.empty());
    }
    EXPECT_EQ(workload->checkConsistency(mem, 2), "");
}

TEST_P(WorkloadFunctionalTest, LargeEntriesWork)
{
    MicroParams params;
    params.entryBytes = 4096;
    params.initialItems = 8;
    auto workload = make(GetParam(), params);
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(256) * 1024 * 1024, 1);
    workload->init(mem, heap, 1);

    Random rng(11);
    for (int i = 0; i < 30; ++i) {
        Transaction txn;
        RecordingAccessor rec(img, txn);
        workload->runTransaction(0, rec, rng);
    }
    EXPECT_EQ(workload->checkConsistency(mem, 1), "");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFunctionalTest,
                         ::testing::Values("hash", "queue", "rbtree",
                                           "btree", "sdg", "sps"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(ConsistencyCheckerTest, HashDetectsTornPayload)
{
    MicroParams params;
    params.initialItems = 4;
    HashWorkload workload(params);
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(64) * 1024 * 1024, 1);
    workload.init(mem, heap, 1);
    EXPECT_EQ(workload.checkConsistency(mem, 1), "");

    // Corrupt one payload word somewhere in the heap: the checker must
    // notice. Find a node by scanning the first bucket with a head.
    bool corrupted = false;
    for (Addr probe = kPageBytes; probe < heap.highWater() && !corrupted;
         probe += 8) {
        const std::uint64_t v = img.load64(probe);
        // Payload words look like key*GOLDEN + i; flip one arbitrary
        // non-zero word inside the payload area.
        if (v != 0 && probe % kLineBytes == 8) {
            img.store64(probe, v ^ 0xdead);
            corrupted = true;
        }
    }
    ASSERT_TRUE(corrupted);
    EXPECT_NE(workload.checkConsistency(mem, 1), "");
}

TEST(ConsistencyCheckerTest, SpsDetectsHalfSwap)
{
    MicroParams params;
    params.initialItems = 8;
    SpsWorkload workload(params);
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(64) * 1024 * 1024, 1);
    workload.init(mem, heap, 1);

    // Duplicate entry 0 over entry 1: a classic torn swap.
    std::vector<std::uint8_t> entry(params.entryBytes);
    const Addr base = kPageBytes;  // first allocation = the array
    img.read(base, entry.size(), entry.data());
    img.write(base + params.entryBytes, entry.size(), entry.data());
    EXPECT_NE(workload.checkConsistency(mem, 1), "");
}

TEST(BPlusTreeTest, RandomOpsMatchStdMap)
{
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(256) * 1024 * 1024, 1);
    BPlusTree tree(BPlusTree::create(mem, heap, 0), heap, 0);

    std::map<std::uint64_t, std::uint64_t> ref;
    Random rng(1234);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = rng.below(600);
        const int op = int(rng.below(3));
        if (op == 0) {
            const std::uint64_t val = rng.next();
            tree.insert(mem, key, val);
            ref[key] = val;
        } else if (op == 1) {
            EXPECT_EQ(tree.remove(mem, key), ref.erase(key) > 0);
        } else {
            const auto got = tree.search(mem, key);
            const auto it = ref.find(key);
            if (it == ref.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, it->second);
            }
        }
        if (i % 500 == 0) {
            ASSERT_EQ(tree.checkStructure(mem), "");
        }
    }
    EXPECT_EQ(tree.checkStructure(mem), "");
    EXPECT_EQ(tree.count(mem), ref.size());
}

TEST(BPlusTreeTest, SequentialInsertSplitsDeeply)
{
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(256) * 1024 * 1024, 1);
    BPlusTree tree(BPlusTree::create(mem, heap, 0), heap, 0);
    for (std::uint64_t k = 1; k <= 5000; ++k)
        tree.insert(mem, k, k * 10);
    EXPECT_EQ(tree.checkStructure(mem), "");
    EXPECT_EQ(tree.count(mem), 5000u);
    for (std::uint64_t k : {1ull, 2500ull, 5000ull})
        EXPECT_EQ(tree.search(mem, k), k * 10);
    EXPECT_FALSE(tree.search(mem, 5001).has_value());
}

TEST(BPlusTreeTest, OverwriteKeepsSingleKey)
{
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(64) * 1024 * 1024, 1);
    BPlusTree tree(BPlusTree::create(mem, heap, 0), heap, 0);
    tree.insert(mem, 5, 1);
    tree.insert(mem, 5, 2);
    EXPECT_EQ(tree.count(mem), 1u);
    EXPECT_EQ(tree.search(mem, 5), 2u);
}

TEST(TpccTest, NewOrderMaintainsInvariants)
{
    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 8;
    scale.items = 64;
    TpccWorkload workload(scale);

    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(512) * 1024 * 1024, 8);
    workload.init(mem, heap, 8);
    EXPECT_EQ(workload.checkConsistency(mem, 8), "");

    Random rng(9);
    for (int i = 0; i < 100; ++i) {
        Transaction txn;
        RecordingAccessor rec(img, txn);
        workload.runTransaction(CoreId(i % 8), rec, rng);
        // Every new-order writes the district counter, the order
        // tables and 5-15 stock rows + order lines.
        EXPECT_GE(txn.modifiedLines.size(), 8u);
    }
    EXPECT_EQ(workload.checkConsistency(mem, 8), "");
}

TEST(TpccTest, KeysAreInjective)
{
    std::set<std::uint64_t> keys;
    for (std::uint32_t w = 1; w <= 2; ++w) {
        for (std::uint32_t d = 1; d <= 10; ++d) {
            for (std::uint32_t o = 1; o <= 50; ++o) {
                EXPECT_TRUE(
                    keys.insert(tpcc::orderKey(w, d, o)).second);
                for (std::uint32_t l = 0; l < 15; ++l) {
                    EXPECT_TRUE(
                        keys.insert(tpcc::orderLineKey(w, d, o, l))
                            .second);
                }
            }
        }
    }
}

TEST(ZipfianTest, ThetaZeroIsUniform)
{
    const std::uint64_t n = 64;
    const int draws = 64000;
    ZipfianGenerator gen(n, 0.0);
    Random rng(17);
    std::vector<int> hist(n, 0);
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t r = gen.next(rng);
        ASSERT_LT(r, n);
        ++hist[r];
    }
    // Every rank lands near draws/n = 1000 (loose 3x band; a zipfian
    // at theta 0.99 would put >5000 on rank 0).
    for (std::uint64_t r = 0; r < n; ++r) {
        EXPECT_GT(hist[r], 500) << "rank " << r;
        EXPECT_LT(hist[r], 2000) << "rank " << r;
    }
}

TEST(ZipfianTest, SkewConcentratesOnHotRanks)
{
    const std::uint64_t n = 1024;
    const int draws = 100000;
    ZipfianGenerator gen(n, 0.99);
    Random rng(23);
    std::vector<int> hist(n, 0);
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t r = gen.next(rng);
        ASSERT_LT(r, n);
        ++hist[r];
    }
    // Rank 0 alone draws ~1/zeta(1024) ~ 13% of the mass; uniform
    // would give under 0.1%.
    EXPECT_GT(hist[0], draws / 20);
    // The hottest 10% of ranks take the clear majority of draws.
    int hot = 0;
    for (std::uint64_t r = 0; r < n / 10; ++r)
        hot += hist[r];
    EXPECT_GT(hot, draws * 6 / 10);
    // Monotone in aggregate: the first quarter outdraws the last.
    int head = 0, tail = 0;
    for (std::uint64_t r = 0; r < n / 4; ++r)
        head += hist[r];
    for (std::uint64_t r = 3 * n / 4; r < n; ++r)
        tail += hist[r];
    EXPECT_GT(head, 4 * tail);
}

TEST(KvWorkloadTest, FunctionalRunStaysConsistentAndTagsClasses)
{
    KvParams params;
    params.keysPerTenant = 64;
    params.valueBytes = 64;
    params.numTenants = 2;
    KvWorkload workload(params);

    const std::uint32_t cores = 4;
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(256) * 1024 * 1024, cores);
    workload.init(mem, heap, cores);
    EXPECT_EQ(workload.checkConsistency(mem, cores), "");

    Random rng(7);
    bool saw_class[KvWorkload::kNumClasses] = {false, false, false};
    for (int i = 0; i < 400; ++i) {
        Transaction txn;
        RecordingAccessor rec(img, txn);
        const CoreId core = CoreId(i % cores);
        workload.runTransaction(core, rec, rng);
        ASSERT_LT(txn.txnClass, KvWorkload::kNumClasses);
        saw_class[txn.txnClass] = true;
        // Tenant tag matches the block-of-cores ownership (cores 0-1
        // are tenant 0, cores 2-3 tenant 1).
        EXPECT_EQ(txn.tenant, core / 2);
        // Reads are log-free; updates and inserts are atomic regions.
        bool has_region = false;
        for (const auto &op : txn.ops)
            has_region |= op.kind == OpKind::AtomicBegin;
        EXPECT_EQ(has_region,
                  txn.txnClass != KvWorkload::kClassRead);
    }
    // 400 draws at the default 50/40/10 mix: seeing all three classes
    // is a certainty unless the mix wiring broke.
    EXPECT_TRUE(saw_class[KvWorkload::kClassRead]);
    EXPECT_TRUE(saw_class[KvWorkload::kClassUpdate]);
    EXPECT_TRUE(saw_class[KvWorkload::kClassInsert]);
    EXPECT_EQ(workload.checkConsistency(mem, cores), "");
}

TEST(KvWorkloadTest, CheckerDetectsTornUpdate)
{
    KvParams params;
    params.keysPerTenant = 32;
    params.valueBytes = 64;
    KvWorkload workload(params);

    const std::uint32_t cores = 2;
    DataImage img;
    DirectAccessor mem(img);
    PersistentHeap heap(kPageBytes, Addr(128) * 1024 * 1024, cores);
    workload.init(mem, heap, cores);

    Random rng(5);
    for (int i = 0; i < 50; ++i) {
        Transaction txn;
        RecordingAccessor rec(img, txn);
        workload.runTransaction(CoreId(i % cores), rec, rng);
    }
    ASSERT_EQ(workload.checkConsistency(mem, cores), "");

    // Tear a slot: bump the version without rewriting the value
    // pattern, exactly what a non-atomic crash mid-update leaves.
    // Locate the slot table by its keyTag signature (key s stores
    // s + 1 at slot offset 0; slots are 64B header + 64B value here).
    const Addr slot_bytes = kLineBytes + params.valueBytes;
    bool torn = false;
    for (Addr a = 0; a < Addr(16) * 1024 * 1024 && !torn; a += 8) {
        if (mem.load64(a) == 1 && mem.load64(a + slot_bytes) == 2 &&
            mem.load64(a + 2 * slot_bytes) == 3) {
            mem.store64(a + 8, mem.load64(a + 8) + 1);
            torn = true;
        }
    }
    ASSERT_TRUE(torn);
    EXPECT_NE(workload.checkConsistency(mem, cores), "");
}

} // namespace
} // namespace atomsim
