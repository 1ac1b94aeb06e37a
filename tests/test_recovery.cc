/**
 * @file
 * Crash + recovery property tests: the end-to-end validation of
 * Invariants 1 and 2 (Section II-C) and the recovery routine
 * (Section IV-D).
 *
 * Each test runs a workload partway, cuts power at a jittered point
 * (mid log write / mid flush / mid truncation), discards all volatile
 * state, runs the system-call recovery routine against the durable NVM
 * image alone, and then checks the workload's structural invariants on
 * that image. Any Invariant-2 violation (data reaching NVM before its
 * undo entry) shows up as a torn structure the rollback cannot fix.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/crash_cell.hh"
#include "harness/runner.hh"
#include "workloads/btree_workload.hh"
#include "workloads/hash_workload.hh"
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
crashConfig(DesignKind design)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
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

struct CrashCase
{
    const char *workload;
    DesignKind design;
    double fraction;    //!< fraction of work completed before crash
    std::uint64_t seed; //!< crash-point jitter seed
};

class CrashRecoveryTest : public ::testing::TestWithParam<CrashCase>
{
};

TEST_P(CrashRecoveryTest, RecoversToConsistentState)
{
    const CrashCase c = GetParam();
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 12;
    params.txnsPerCore = 10;
    params.seed = c.seed;

    auto workload = makeWorkload(c.workload, params);
    ASSERT_NE(workload, nullptr);

    SystemConfig cfg = crashConfig(c.design);
    cfg.seed = c.seed;
    Runner runner(cfg, *workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.runUntilCrash(c.fraction, c.seed);

    // Recovery operates on durable state only.
    const RecoveryReport report = runner.system().recover();
    EXPECT_TRUE(report.criticalStateFound);

    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload->checkConsistency(durable,
                                         cfg.numCores), "")
        << "design=" << designName(c.design)
        << " fraction=" << c.fraction << " seed=" << c.seed
        << " rolledBack=" << report.incompleteUpdates;
}

std::string
crashName(const ::testing::TestParamInfo<CrashCase> &info)
{
    std::string name = info.param.workload;
    name += "_";
    std::string design = designName(info.param.design);
    for (char &ch : design) {
        if (ch == '-')
            ch = '_';
    }
    name += design;
    name += "_f" + std::to_string(int(info.param.fraction * 100));
    name += "_s" + std::to_string(info.param.seed);
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    UndoDesigns, CrashRecoveryTest,
    ::testing::Values(
        // Every workload under ATOM-OPT at a mid-run crash.
        CrashCase{"hash", DesignKind::AtomOpt, 0.5, 1},
        CrashCase{"queue", DesignKind::AtomOpt, 0.5, 1},
        CrashCase{"rbtree", DesignKind::AtomOpt, 0.5, 1},
        CrashCase{"btree", DesignKind::AtomOpt, 0.5, 1},
        CrashCase{"sdg", DesignKind::AtomOpt, 0.5, 1},
        CrashCase{"sps", DesignKind::AtomOpt, 0.5, 1},
        // Crash-point sweep on the rebalancing-heavy tree.
        CrashCase{"rbtree", DesignKind::AtomOpt, 0.1, 2},
        CrashCase{"rbtree", DesignKind::AtomOpt, 0.3, 3},
        CrashCase{"rbtree", DesignKind::AtomOpt, 0.7, 4},
        CrashCase{"rbtree", DesignKind::AtomOpt, 0.9, 5},
        CrashCase{"rbtree", DesignKind::Atom, 0.5, 6},
        CrashCase{"rbtree", DesignKind::Atom, 0.25, 7},
        CrashCase{"rbtree", DesignKind::Base, 0.5, 8},
        // Seed sweep on hash under posted logging.
        CrashCase{"hash", DesignKind::Atom, 0.4, 11},
        CrashCase{"hash", DesignKind::Atom, 0.4, 12},
        CrashCase{"hash", DesignKind::Atom, 0.4, 13},
        CrashCase{"hash", DesignKind::Base, 0.6, 14},
        CrashCase{"queue", DesignKind::Atom, 0.6, 15},
        CrashCase{"btree", DesignKind::Atom, 0.6, 16},
        CrashCase{"sps", DesignKind::Base, 0.5, 17}),
    crashName);

// --- campaign regressions --------------------------------------------------
//
// Cells found failing by the crash-fuzzing sweep (bench/crash_campaign.cc)
// and pinned here after the fix, in the exact form regressionBody()
// emits, so future failing cells paste in unchanged.

// The torn-payload write-order inversion: two gate-parked writes to
// the same locked line were replayed newest-first, letting a stale
// writeback drain to the device after the commit flush whose
// truncation had already discarded the line's undo record. Seeds
// 60-66 all reproduced under this cell shape (tiny assoc-starved L2);
// 62/63/64 are pinned. Fixed by committing same-line writes to the
// durable image in acceptance order (mem/memory_controller.cc).
//
// Note on sharpness: these three fraction-based cells were the
// original bug report. After the duplicate-undo suppression fix
// (atom/logm.cc) shifted log timing, runUntilCrash's fractional
// crash points no longer land inside the (narrow) vulnerable window,
// so with the acceptance-order fix reverted these cells pass again.
// They are kept as end-to-end consistency checks of the reported
// config; the *_shrunk pinned-tick cells below are the sharp guards
// -- each still fails if the acceptance-order fix is reverted.
TEST(CampaignRegressionTest, hash_atom_s62)
{
    const auto cell =
        CrashCell::parse("hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

TEST(CampaignRegressionTest, hash_atom_s63)
{
    const auto cell =
        CrashCell::parse("hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s63");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

TEST(CampaignRegressionTest, hash_atom_s64)
{
    const auto cell =
        CrashCell::parse("hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s64");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

// The auto-shrunk minimum of the s62 cell above: every axis smaller
// than the hand-found reproducer (1 KB L2, 64-byte entries, one
// transaction per core) with the crash tick pinned by bisection.
// Shrunk by bench/crash_campaign.cc from a failing sweep cell.
// Fault was:
//   torn payload: core=2 bucket=37 node=0x81a00 key=0x200000010
//   word=5 addr=0x81a68 expected=0xe20c93c1f4a7c155 found=0x0
TEST(CampaignRegressionTest, hash_atom_s62_shrunk)
{
    const auto cell = CrashCell::parse(
        "hash:atom:f50:c4:l1x2:e64:i16:t1:h0:s62:k3643");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

// Seeds 63/64 at the shrunk shape, crash ticks found by scanning the
// pre-fix build under post-dedup timing (same torn-payload fault
// signature as s62). These keep all three reported seeds guarded by
// a pinned-tick cell that demonstrably fails without the fix.
TEST(CampaignRegressionTest, hash_atom_s63_shrunk)
{
    const auto cell = CrashCell::parse(
        "hash:atom:f50:c4:l1x2:e64:i16:t1:h0:s63:k3518");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

TEST(CampaignRegressionTest, hash_atom_s64_shrunk)
{
    const auto cell = CrashCell::parse(
        "hash:atom:f50:c4:l1x2:e64:i16:t1:h0:s64:k3518");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

// The second bug the first full campaign surfaced: a log-exhaustion
// livelock (28 sdg:base cells, every seed at the 4 KB-entry shape).
// Four cores thrashing an assoc-2 L2 set re-logged their stores on
// every recall-induced retry; each re-log force-sealed a one-entry
// record, and since buckets are only reclaimed at commit -- which the
// stalled stores gated -- the log region drained and the OS overflow
// interrupt spun forever. Fixed by duplicate-undo suppression in
// LogM (atom/logm.cc): a re-log of an already-logged line acks
// against the existing entry. Without the fix this cell never
// terminates, so the guard here is completion itself.
TEST(CampaignRegressionTest, sdg_base_s61)
{
    const auto cell =
        CrashCell::parse("sdg:base:f25:c4:l8x2:e512:i32:t10:h0:s61");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

// The third campaign find (15 sdg:redo cells after the grid widened
// to the REDO design): the write-combining buffer recorded only the
// stored line's *address* and re-read its data from the cache
// hierarchy at drain time. During a split-phase L2-eviction recall
// round the only fresh copy of a line rides the round's mesh packets
// -- the L1 has surrendered it, the L2 frame is not merged until the
// round completes -- so the drain logged a stale image; replayed
// last, it finalized stale data (sdg's counter line lost an edge
// increment). Fixed by capturing the coherent pre-store image at
// onStore time and assembling the entry store by store: the buffer
// owns its data and the drain never re-reads the caches
// (designs/redo_engine.cc, cache/l1_cache.cc).
//
// Shrunk by bench/crash_campaign.cc from a failing sweep cell. Fault was:
//   global edge count disagrees with the lists: core=2 count=4 lists=5
TEST(CampaignRegressionTest, sdg_redo_s60)
{
    const auto cell = CrashCell::parse(
        "sdg:redo:f50:c4:l1x2:e904:i3:t2:h0:s60:k32153");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

// Shrunk by bench/crash_campaign.cc from a failing sweep cell. Fault was:
//   global edge count disagrees with the lists: core=3 count=5 lists=6
TEST(CampaignRegressionTest, sdg_redo_s63)
{
    const auto cell = CrashCell::parse(
        "sdg:redo:f50:c4:l2x2:e992:i4:t3:h0:s63:k55090");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

// The same stale-drain bug through the hybrid-memory shapes (the
// recall-round race is upstream of the controllers, so every memory
// organization reproduced it): memoryMode and appDirect/data-direct
// shrunk cells.
TEST(CampaignRegressionTest, sdg_redo_s64_h1)
{
    const auto cell = CrashCell::parse(
        "sdg:redo:f50:c4:l4x2:e504:i32:t5:h1:s64:k51616");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

TEST(CampaignRegressionTest, sdg_redo_s64_h3)
{
    const auto cell = CrashCell::parse(
        "sdg:redo:f50:c4:l8x2:e512:i32:t5:h3:s64:k52441");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_EQ(out.fault, "");
}

TEST(CrashRecoveryTest, RecoveryIsIdempotent)
{
    MicroParams params;
    params.initialItems = 12;
    params.txnsPerCore = 8;
    RbTreeWorkload workload(params);

    Runner runner(crashConfig(DesignKind::AtomOpt), workload,
                  params.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.runUntilCrash(0.5, 21);
    runner.system().recover();
    const DataImage first = runner.system().nvmImage().clone();

    // Running recovery again must be a no-op on the image.
    runner.system().recover();
    DirectAccessor a(runner.system().nvmImage());
    for (Addr probe = kPageBytes; probe < Addr(4) * 1024 * 1024;
         probe += 4096 + 64) {
        EXPECT_EQ(first.load64(probe),
                  runner.system().nvmImage().load64(probe));
    }
}

TEST(CrashRecoveryTest, CleanShutdownNeedsNoRollback)
{
    MicroParams params;
    params.initialItems = 8;
    params.txnsPerCore = 5;
    HashWorkload workload(params);

    Runner runner(crashConfig(DesignKind::AtomOpt), workload,
                  params.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.run(Tick(500) * 1000 * 1000);
    runner.system().powerFail();  // crash after everything committed

    const RecoveryReport report = runner.system().recover();
    EXPECT_EQ(report.incompleteUpdates, 0u);
    EXPECT_EQ(report.linesRestored, 0u);

    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, 4), "");
}

TEST(CrashRecoveryTest, CommittedTransactionsSurviveRollback)
{
    // After recovery, the durable image must reflect a clean boundary:
    // committed transactions' data present, in-flight ones rolled
    // back. The sps permutation check proves no half-swap survives;
    // additionally the recovered image must differ from the initial
    // one (committed swaps really persisted).
    MicroParams params;
    params.initialItems = 16;
    params.txnsPerCore = 10;
    params.entryBytes = 512;
    SpsWorkload workload(params);

    Runner runner(crashConfig(DesignKind::Atom), workload,
                  params.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    const DataImage initial = runner.system().nvmImage().clone();
    runner.runUntilCrash(0.6, 33);
    const std::uint64_t committed = runner.committed();
    ASSERT_GT(committed, 0u);

    runner.system().recover();
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, 4), "");

    // Some committed swap must be visible in durable state.
    bool changed = false;
    for (Addr probe = kPageBytes;
         probe < kPageBytes + Addr(16) * 512 && !changed; probe += 8) {
        if (initial.load64(probe) !=
            runner.system().nvmImage().load64(probe)) {
            changed = true;
        }
    }
    EXPECT_TRUE(changed);
}

TEST(CrashRecoveryTest, RedoDesignRecoversViaReapply)
{
    MicroParams params;
    params.initialItems = 12;
    params.txnsPerCore = 6;
    HashWorkload workload(params);

    SystemConfig cfg = crashConfig(DesignKind::Redo);
    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.runUntilCrash(0.5, 41);

    const RecoveryReport report = runner.system().recoverRedo();
    (void)report;
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, 4), "");
}

TEST(CrashRecoveryTest, TpccRecoversUnderAtomOpt)
{
    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 8;
    scale.items = 64;
    TpccWorkload workload(scale);

    // Single-threaded TPC-C for the crash test: the trace-at-dispatch
    // execution model guarantees byte-exact caches only for disjoint
    // writers (see DESIGN.md), and recovery checking needs byte-exact
    // durable state.
    SystemConfig cfg = crashConfig(DesignKind::AtomOpt);
    cfg.numCores = 1;
    cfg.l2Tiles = 1;
    cfg.meshRows = 1;
    cfg.ausPerMc = 1;
    Runner runner(cfg, workload, 12, Addr(128) * 1024 * 1024);
    runner.setUp();
    runner.runUntilCrash(0.5, 55);
    runner.system().recover();

    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, 1), "");
}

// --- Split-phase coherence vs. power failure ---------------------------
//
// Since the L1<->L2 legs became mesh transactions, a crash can land
// while a PutM writeback, a recall round, or a parked fill is in
// flight. The pooled transaction state (L1 writeback-buffer entries,
// L2 Round records, L2 PendingFills, MSHR waiters) must all return to
// their pools -- the ASan job keeps this honest end to end.

TEST(SplitPhaseCrashTest, PowerFailReclaimsInFlightCoherenceState)
{
    // Tiny L1s and L2 slices so ordinary stores overflow both and
    // trigger split-phase evictions (writebacks, recall rounds,
    // parked fills).
    SystemConfig cfg = crashConfig(DesignKind::AtomOpt);
    cfg.l1SizeBytes = 2 * 1024;
    cfg.l1Assoc = 2;
    cfg.l2TileBytes = 8 * 1024;
    cfg.l2Assoc = 2;

    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 64;
    params.txnsPerCore = 12;
    HashWorkload workload(params);

    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();

    // Single-step and cut power the moment a writeback or recall
    // round is actually in flight, so the crash genuinely interrupts
    // a split-phase transaction. (advanceTo leaves now() at the last
    // executed event, so step an external cursor.)
    System &sys = runner.system();
    bool caught_in_flight = false;
    for (Tick cursor = 1; cursor < 200000 && !caught_in_flight;
         ++cursor) {
        runner.advanceTo(cursor);
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            if (sys.l1(c).outstandingWritebacks() > 0)
                caught_in_flight = true;
        }
        for (std::uint32_t t = 0; t < cfg.l2Tiles; ++t) {
            const L2Tile &tile = sys.l2Tile(t);
            if (tile.roundPoolAllocated() > tile.roundPoolFree() ||
                tile.fillPoolAllocated() > tile.fillPoolFree()) {
                caught_in_flight = true;
            }
        }
    }
    ASSERT_TRUE(caught_in_flight)
        << "workload never produced an in-flight writeback/recall";

    sys.powerFail();

    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const L1Cache &l1 = sys.l1(c);
        EXPECT_EQ(l1.outstandingWritebacks(), 0u) << "core " << c;
        EXPECT_EQ(l1.wbPoolFree(), l1.wbPoolAllocated()) << "core " << c;
        EXPECT_EQ(l1.storePoolFree(), l1.storePoolAllocated())
            << "core " << c;
        EXPECT_EQ(l1.outstandingMisses(), 0u) << "core " << c;
        EXPECT_EQ(l1.mshrs().waiterPoolFree(),
                  l1.mshrs().waiterPoolAllocated())
            << "core " << c;
    }
    for (std::uint32_t t = 0; t < cfg.l2Tiles; ++t) {
        L2Tile &tile = sys.l2Tile(t);
        EXPECT_EQ(tile.roundPoolFree(), tile.roundPoolAllocated())
            << "tile " << t;
        EXPECT_EQ(tile.fillPoolFree(), tile.fillPoolAllocated())
            << "tile " << t;
    }

    // The machine must still recover to a consistent image.
    const RecoveryReport report = sys.recover();
    EXPECT_TRUE(report.criticalStateFound);
    DirectAccessor durable(sys.nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, cfg.numCores), "");
}

namespace
{

/** FNV-1a over a span of the durable image. */
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

struct CrashOutcome
{
    RecoveryReport report;
    std::uint64_t image_hash;
    Tick crash_tick;
};

CrashOutcome
crashAndRecoverOnce()
{
    SystemConfig cfg = crashConfig(DesignKind::Atom);
    cfg.l2TileBytes = 8 * 1024;  // force split-phase evictions
    cfg.l2Assoc = 2;

    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 32;
    params.txnsPerCore = 10;
    params.seed = 9;
    HashWorkload workload(params);

    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    const Tick crash_tick = runner.runUntilCrash(0.5, 9);
    CrashOutcome out;
    out.crash_tick = crash_tick;
    out.report = runner.system().recover();
    out.image_hash = imageHash(runner.system().nvmImage(), kPageBytes,
                               Addr(2) * 1024 * 1024);
    return out;
}

} // namespace

TEST(SplitPhaseCrashTest, RecoveryOutputIsDeterministic)
{
    // Two identical crash runs -- each interrupting split-phase
    // coherence traffic -- must produce byte-identical recovered
    // images and identical recovery reports.
    const CrashOutcome a = crashAndRecoverOnce();
    const CrashOutcome b = crashAndRecoverOnce();
    EXPECT_EQ(a.crash_tick, b.crash_tick);
    EXPECT_EQ(a.report.incompleteUpdates, b.report.incompleteUpdates);
    EXPECT_EQ(a.report.recordsApplied, b.report.recordsApplied);
    EXPECT_EQ(a.report.linesRestored, b.report.linesRestored);
    EXPECT_EQ(a.image_hash, b.image_hash);
}

// --- Hybrid DRAM/NVM memory vs. power failure --------------------------
//
// With a DRAM tier in front of the NVM channel (memoryMode /
// appDirect), powerFail drops every DRAM-cached dirty line -- absorbed
// L2 writebacks that never reached NVM -- while commit-time Flush
// writes and all log traffic persist write-through. Recovery therefore
// still sees every byte Invariants 1 and 2 require, and the rollback
// must produce a consistent image even though a slice of pre-crash
// write traffic vanished with the DRAM.

namespace
{

SystemConfig
hybridCrashConfig(DesignKind design, HybridMode mode,
                  AppDirectRegion region = AppDirectRegion::LogRegion)
{
    SystemConfig cfg = crashConfig(design);
    cfg.hybridMode = mode;
    cfg.appDirectRegion = region;
    cfg.dramCacheMBPerMc = 1;
    // Small L2 slices so ordinary stores spill writebacks into the
    // DRAM tier -- the crash must genuinely interrupt absorbed dirty
    // lines, not an idle cache.
    cfg.l2TileBytes = 8 * 1024;
    cfg.l2Assoc = 2;
    return cfg;
}

void
runHybridCrash(const SystemConfig &cfg, std::uint64_t seed)
{
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 32;
    params.txnsPerCore = 10;
    params.seed = seed;
    HashWorkload workload(params);

    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.runUntilCrash(0.5, seed);

    const RecoveryReport report = runner.system().recover();
    EXPECT_TRUE(report.criticalStateFound);
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, cfg.numCores), "")
        << "hybridMode=" << hybridModeName(cfg.hybridMode)
        << " seed=" << seed;
}

} // namespace

TEST(HybridCrashTest, MemoryModeRecoversToConsistentState)
{
    runHybridCrash(
        hybridCrashConfig(DesignKind::AtomOpt, HybridMode::MemoryMode),
        61);
    runHybridCrash(
        hybridCrashConfig(DesignKind::Atom, HybridMode::MemoryMode),
        62);
}

TEST(HybridCrashTest, AppDirectRecoversToConsistentState)
{
    runHybridCrash(
        hybridCrashConfig(DesignKind::AtomOpt, HybridMode::AppDirect),
        63);
    // Data-direct: the data path is byte-for-byte the flat-NVM path,
    // so this case runs at the default (Table-I) L2 size -- the
    // small-L2 shape exposes a *pre-existing* flat-NVM crash
    // inconsistency (torn payload under ATOM with mid-transaction L2
    // evictions; reproduced at the seed commit, recorded in
    // ROADMAP.md) that is independent of the hybrid tier.
    SystemConfig data_direct =
        hybridCrashConfig(DesignKind::Atom, HybridMode::AppDirect,
                          AppDirectRegion::DataRegion);
    data_direct.l2TileBytes = 1024 * 1024;
    data_direct.l2Assoc = 16;
    runHybridCrash(data_direct, 64);
}

TEST(HybridCrashTest, DirtyDramLinesAreLostAndNvmBytesSurvive)
{
    // Single-step until a controller holds genuinely dirty DRAM lines
    // (absorbed writebacks), then cut power: every one of those lines
    // must *not* have its DRAM value in the NVM image (the volatile
    // copy was newer and died), the caches must come up empty, and
    // recovery must still roll the image to a consistent state.
    SystemConfig cfg =
        hybridCrashConfig(DesignKind::AtomOpt, HybridMode::MemoryMode);

    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 64;
    params.txnsPerCore = 12;
    HashWorkload workload(params);

    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();

    System &sys = runner.system();
    std::size_t dirty = 0;
    for (Tick cursor = 1; cursor < 400000 && dirty == 0; cursor += 50) {
        runner.advanceTo(cursor);
        for (McId m = 0; m < cfg.numMemCtrls; ++m)
            dirty += sys.memCtrl(m).dramCache()->dirtyLines();
    }
    ASSERT_GT(dirty, 0u)
        << "workload never absorbed a dirty writeback into DRAM";

    // Snapshot the dirty lines' addresses + volatile data.
    struct DirtyLine
    {
        Addr addr;
        Line data;
    };
    std::vector<DirtyLine> lines;
    for (McId m = 0; m < cfg.numMemCtrls; ++m) {
        DramCache *cache = sys.memCtrl(m).dramCache();
        // Walk the image-visible address space lazily: ask the cache
        // about every line the workload could have touched (the data
        // region is small here).
        for (Addr a = 0; a < Addr(4) * 1024 * 1024; a += kLineBytes) {
            if (sys.addressMap().memCtrl(a) == m && cache->isDirty(a))
                lines.push_back({a, *cache->peek(a)});
        }
    }
    ASSERT_FALSE(lines.empty());

    sys.powerFail();

    std::size_t lost = 0;
    for (const DirtyLine &dl : lines) {
        for (McId m = 0; m < cfg.numMemCtrls; ++m)
            EXPECT_FALSE(sys.memCtrl(m).dramCache()->contains(dl.addr));
        if (sys.nvmImage().readLine(dl.addr) != dl.data)
            ++lost;
    }
    // The volatile values must be gone from the image. (A dirty line
    // can coincidentally match NVM when a writeback re-wrote the same
    // bytes, so require losses rather than all-lines-lost.)
    EXPECT_GT(lost, 0u);

    const RecoveryReport report = sys.recover();
    EXPECT_TRUE(report.criticalStateFound);
    DirectAccessor durable(sys.nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, cfg.numCores), "");
}

// --- Injected-fault recovery -------------------------------------------
//
// The fault model (sim/fault.hh): power failure tears in-flight
// device writes at a seeded word boundary (cfg.tornWrites), and a
// second failure can interrupt recovery itself, tearing *recovery's*
// writes (Runner::crashDuringRecovery). Both are pure functions of
// the fault seed and deterministic keys, so every outcome below is
// replayable.

namespace
{

struct TornOutcome
{
    Tick crash_tick = 0;
    RecoveryReport report;
    std::uint64_t image_hash = 0;
    std::string fault;
};

/** Crash under torn device writes at @p tick (0 = fraction 0.5 with
 * @p seed jitter), recover fully, hash + consistency-check the image. */
TornOutcome
tornCrashAndRecover(DesignKind design, std::uint64_t seed,
                    Tick tick = 0)
{
    SystemConfig cfg = crashConfig(design);
    cfg.tornWrites = true;
    cfg.faultSeed = seed;
    cfg.seed = seed;
    cfg.l2TileBytes = 8 * 1024;  // split-phase evictions keep the
    cfg.l2Assoc = 2;             // write queues busy at the crash
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 32;
    params.txnsPerCore = 10;
    params.seed = seed;
    HashWorkload workload(params);

    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    TornOutcome out;
    out.crash_tick = tick ? runner.crashAt(tick)
                          : runner.runUntilCrash(0.5, seed);
    out.report = design == DesignKind::Redo
                     ? runner.system().recoverRedo()
                     : runner.system().recover();
    out.image_hash = imageHash(runner.system().nvmImage(), kPageBytes,
                               Addr(2) * 1024 * 1024);
    DirectAccessor durable(runner.system().nvmImage());
    out.fault = workload.checkConsistency(durable, 4);
    return out;
}

} // namespace

TEST(TornWriteCrashTest, TornRecoveryIsDeterministicAndConsistent)
{
    // Identical runs under torn writes must recover byte-identical
    // images (the tear boundaries are seeded, not sampled), and the
    // recovered image must satisfy the workload invariants: a tear
    // can only land on lines whose undo records recovery rewrites in
    // full, or on lines no committed transaction claims.
    const TornOutcome a = tornCrashAndRecover(DesignKind::AtomOpt, 9);
    const TornOutcome b = tornCrashAndRecover(DesignKind::AtomOpt, 9);
    EXPECT_EQ(a.crash_tick, b.crash_tick);
    EXPECT_EQ(a.image_hash, b.image_hash);
    EXPECT_EQ(a.report.tornRecords, b.report.tornRecords);
    EXPECT_EQ(a.fault, "");
    EXPECT_EQ(b.fault, "");

    // A different fault seed tears at different boundaries but must
    // recover just as consistently.
    const TornOutcome c = tornCrashAndRecover(DesignKind::AtomOpt, 10);
    EXPECT_EQ(c.fault, "");
}

TEST(TornWriteCrashTest, TornLogTailIsDetectedAndSkipped)
{
    // Sweep pinned crash ticks through the mid-run log-write window:
    // some crash must catch a log-record header in the device write
    // queue, whose torn prefix then fails the header checksum during
    // the recovery scan (report.tornRecords). Every such recovery must
    // still produce a consistent image -- a torn header only ever
    // costs the record's rollback, never correctness of the scan.
    const TornOutcome probe =
        tornCrashAndRecover(DesignKind::AtomOpt, 9);
    std::uint32_t torn_total = 0;
    for (int i = -8; i <= 8; ++i) {
        const Tick tick = probe.crash_tick + Tick(i * 977);
        const TornOutcome out =
            tornCrashAndRecover(DesignKind::AtomOpt, 9, tick);
        EXPECT_EQ(out.fault, "") << "crash tick " << tick;
        torn_total += out.report.tornRecords;
    }
    EXPECT_GT(torn_total, 0u)
        << "no crash in the sweep tore a log header: widen the sweep";
}

namespace
{

/** Reference image of @p design crashing at seed 9 and recovering in
 * one uninterrupted pass vs. the same crash recovered with a second
 * failure at @p fraction of the applications (torn recovery writes)
 * and a restart. */
void
expectDoubleFailureMatchesSinglePass(DesignKind design, double fraction)
{
    const TornOutcome reference = tornCrashAndRecover(design, 9);
    ASSERT_EQ(reference.fault, "");

    SystemConfig cfg = crashConfig(design);
    cfg.tornWrites = true;
    cfg.faultSeed = 9;
    cfg.seed = 9;
    cfg.l2TileBytes = 8 * 1024;
    cfg.l2Assoc = 2;
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 32;
    params.txnsPerCore = 10;
    params.seed = 9;
    HashWorkload workload(params);

    Runner runner(cfg, workload, params.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    const Tick tick = runner.runUntilCrash(0.5, 9);
    ASSERT_EQ(tick, reference.crash_tick);

    // Crash recovery partway through (tearing its in-flight record's
    // writes), restart it, and require the final image byte-identical
    // to the single-pass reference: recovery is restartable because
    // it only reads the log/ADR regions and rewrites every affected
    // data line in full on the second pass.
    const RecoveryReport report = runner.crashDuringRecovery(fraction);
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(imageHash(runner.system().nvmImage(), kPageBytes,
                        Addr(2) * 1024 * 1024),
              reference.image_hash);
    DirectAccessor durable(runner.system().nvmImage());
    EXPECT_EQ(workload.checkConsistency(durable, 4), "");
}

} // namespace

TEST(DoubleFailureTest, UndoRecoveryRestartsToTheSinglePassImage)
{
    expectDoubleFailureMatchesSinglePass(DesignKind::AtomOpt, 0.5);
}

TEST(DoubleFailureTest, RedoRecoveryRestartsToTheSinglePassImage)
{
    expectDoubleFailureMatchesSinglePass(DesignKind::Redo, 0.5);
}

} // namespace
} // namespace atomsim
