/**
 * @file
 * Golden-trace regression tests.
 *
 * Runs four fixed workloads -- a quickstart-sized hash
 * micro-benchmark, a tpcc-sized OLTP run, TPC-C on the full Table-I
 * machine and KV serving on the 1024-tile preset -- with a tracer
 * attached to the mesh (the first two also under BASE and REDO), and
 * hashes every packet delivery as a (tick, node, message-kind) triple
 * (golden_support.hh owns the hash and the workload configs; the
 * checked-in values live in the generated tests/goldens.inc). The hash
 * pins the simulation down tick-for-tick: any kernel, NoC or protocol
 * refactor that perturbs event timing or ordering -- even two
 * same-tick deliveries swapping places -- changes it.
 *
 * If a change *intentionally* alters timing (a new latency model, a
 * protocol change), regenerate instead of hand-editing: run this
 * binary with `--dump-goldens`, which rewrites tests/goldens.inc, and
 * commit the regenerated file together with the timing change -- with
 * a commit message explaining why the timing moved.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "golden_support.hh"

namespace atomsim
{
namespace
{

using golden::GoldenRun;
using golden::runGoldenQuickstart;
using golden::runGoldenServing1024;
using golden::runGoldenTpcc;
using golden::runGoldenTpccFull;

TEST(GoldenTraceTest, QuickstartSizedRunIsTickForTickStable)
{
    const GoldenRun r = runGoldenQuickstart();
    EXPECT_EQ(r.txns, 8u * 6u);
    EXPECT_EQ(r.deliveries, golden::kGoldenQuickstartDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenQuickstartHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

TEST(GoldenTraceTest, TpccSizedRunIsTickForTickStable)
{
    const GoldenRun r = runGoldenTpcc();
    EXPECT_EQ(r.txns, 4u * 4u);
    EXPECT_EQ(r.deliveries, golden::kGoldenTpccDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenTpccHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

// BASE on the quickstart shape: every log entry is its own record and
// its ack waits for the header to persist, so this golden pins the
// persist-ack path that the ATOM and ATOM-OPT goldens never take.
TEST(GoldenTraceTest, QuickstartSizedBaseRunIsTickForTickStable)
{
    const GoldenRun r = runGoldenQuickstart(false, DesignKind::Base);
    EXPECT_EQ(r.txns, 8u * 6u);
    EXPECT_EQ(r.events, golden::kGoldenQuickstartBaseEvents)
        << "actual events: " << r.events
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.deliveries, golden::kGoldenQuickstartBaseDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenQuickstartBaseHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

// REDO on the tpcc shape: a redo entry per in-region store, commit
// records and the backend's in-place applies. Log writes travel no
// mesh message, so the event count pins their timing as well.
TEST(GoldenTraceTest, TpccSizedRedoRunIsTickForTickStable)
{
    const GoldenRun r = runGoldenTpcc(false, DesignKind::Redo);
    EXPECT_EQ(r.txns, 4u * 4u);
    EXPECT_EQ(r.events, golden::kGoldenTpccRedoEvents)
        << "actual events: " << r.events
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.deliveries, golden::kGoldenTpccRedoDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenTpccRedoHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

// The paper's Table-I machine (32 cores, 32 L2 tiles, 4 MCs): the only
// golden that routes over the full 4x8 mesh to all four controllers.
TEST(GoldenTraceTest, TpccTableOneMachineIsTickForTickStable)
{
    const GoldenRun r = runGoldenTpccFull();
    EXPECT_EQ(r.txns, 32u * 2u);
    EXPECT_EQ(r.events, golden::kGoldenTpccFullEvents)
        << "actual events: " << r.events
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.deliveries, golden::kGoldenTpccFullDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenTpccFullHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

// The 1024-tile serving preset (32x32 mesh, 16 MCs): routes of up to
// 62 hops, Y legs that stride a whole 32-node row per hop, and
// invalidation rounds over sharers past core 63.
TEST(GoldenTraceTest, Serving1024MeshIsTickForTickStable)
{
    const GoldenRun r = runGoldenServing1024();
    // One transaction per core; reads run no atomic region, so only
    // the updates and inserts commit.
    EXPECT_EQ(r.txns, 528u);
    EXPECT_EQ(r.events, golden::kGoldenServing1024Events)
        << "actual events: " << r.events
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.deliveries, golden::kGoldenServing1024Deliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenServing1024Hash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

// Determinism of the trace itself (same config + seed -> same stream),
// independent of the checked-in goldens: a fresh System must reproduce
// the exact delivery sequence.
TEST(GoldenTraceTest, BackToBackRunsProduceIdenticalTraces)
{
    const GoldenRun a = runGoldenQuickstart();
    const GoldenRun b = runGoldenQuickstart();
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.deliveries, b.deliveries);
}

// The regeneration machinery itself: running `--dump-goldens` with no
// timing change must reproduce the checked-in tests/goldens.inc
// byte-identically -- constants, comments, formatting, everything.
// This guards the regeneration path (shared renderer, workload
// configs, hash definition) against silent drift: if this test fails
// while the hash tests above pass, the *dump machinery* changed, not
// the simulation.
TEST(GoldenTraceTest, DumpGoldensIsIdempotent)
{
    std::ifstream in(ATOMSIM_GOLDENS_PATH, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot read " << ATOMSIM_GOLDENS_PATH;
    std::ostringstream checked_in;
    checked_in << in.rdbuf();
    EXPECT_EQ(golden::renderGoldens(), checked_in.str());
}

} // namespace
} // namespace atomsim
