/**
 * @file
 * Crash-campaign cell machinery: ID round-trips, single-cell runs,
 * pinned-tick replay, and the shrinker driven by a synthetic failure
 * predicate with a known minimal cell.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/crash_cell.hh"

namespace atomsim
{
namespace
{

TEST(CrashCellTest, IdRoundTrips)
{
    CrashCell cell;
    cell.workload = "rbtree";
    cell.design = DesignKind::AtomOpt;
    cell.fraction = 0.25;
    cell.cores = 8;
    cell.l2TileKb = 16;
    cell.l2Assoc = 4;
    cell.hybrid = true;
    cell.entryBytes = 4096;
    cell.initialItems = 4;
    cell.txnsPerCore = 6;
    cell.seed = 12345;

    EXPECT_EQ(cell.id(),
              "rbtree:atomopt:f25:c8:l16x4:e4096:i4:t6:h1:s12345");
    const auto parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id(), cell.id());
    EXPECT_EQ(parsed->workload, "rbtree");
    EXPECT_EQ(parsed->design, DesignKind::AtomOpt);
    EXPECT_DOUBLE_EQ(parsed->fraction, 0.25);
    EXPECT_EQ(parsed->cores, 8u);
    EXPECT_EQ(parsed->l2TileKb, 16u);
    EXPECT_EQ(parsed->l2Assoc, 4u);
    EXPECT_TRUE(parsed->hybrid);
    EXPECT_EQ(parsed->entryBytes, 4096u);
    EXPECT_EQ(parsed->initialItems, 4u);
    EXPECT_EQ(parsed->txnsPerCore, 6u);
    EXPECT_EQ(parsed->seed, 12345u);

    // Pinned crash tick survives the round trip too.
    cell.crashTick = 34357;
    EXPECT_EQ(cell.id(),
              "rbtree:atomopt:f25:c8:l16x4:e4096:i4:t6:h1:s12345:k34357");
    const auto pinned = CrashCell::parse(cell.id());
    ASSERT_TRUE(pinned.has_value());
    EXPECT_EQ(pinned->crashTick, Tick(34357));
    EXPECT_EQ(pinned->id(), cell.id());
}

TEST(CrashCellTest, ParseRejectsMalformedIds)
{
    EXPECT_FALSE(CrashCell::parse("").has_value());
    EXPECT_FALSE(CrashCell::parse("hash").has_value());
    // Unknown workload / design.
    EXPECT_FALSE(
        CrashCell::parse("nope:atom:f50:c4:l8x2:e512:i32:t10:h0:s62")
            .has_value());
    EXPECT_FALSE(
        CrashCell::parse("hash:ATOM:f50:c4:l8x2:e512:i32:t10:h0:s62")
            .has_value());
    // Out-of-range / malformed fields.
    EXPECT_FALSE(
        CrashCell::parse("hash:atom:f150:c4:l8x2:e512:i32:t10:h0:s62")
            .has_value());
    EXPECT_FALSE(
        CrashCell::parse("hash:atom:f50:c0:l8x2:e512:i32:t10:h0:s62")
            .has_value());
    EXPECT_FALSE(
        CrashCell::parse("hash:atom:f50:c4:l8z2:e512:i32:t10:h0:s62")
            .has_value());
    EXPECT_FALSE(
        CrashCell::parse("hash:atom:f50:c4:l8x2:e513:i32:t10:h0:s62")
            .has_value());
    EXPECT_FALSE(
        CrashCell::parse("hash:atom:f50:c4:l8x2:e512:i32:t10:h4:s62")
            .has_value());
    // Trailing garbage.
    EXPECT_FALSE(
        CrashCell::parse("hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:x1")
            .has_value());
    EXPECT_FALSE(
        CrashCell::parse(
            "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:k1:k2")
            .has_value());
}

TEST(CrashCellTest, FaultAxesRoundTrip)
{
    CrashCell cell;
    cell.workload = "hash";
    cell.design = DesignKind::Atom;
    cell.tornWords = 1;
    cell.mediaRate = 200;
    cell.recoverPct = 50;

    // Fault tokens append in canonical w < m < r order, before :k.
    EXPECT_EQ(cell.id(),
              "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:w1:m200:r50");
    auto parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tornWords, 1u);
    EXPECT_EQ(parsed->mediaRate, 200u);
    EXPECT_EQ(parsed->recoverPct, 50u);
    EXPECT_EQ(parsed->id(), cell.id());

    // Each axis round-trips alone, and alongside a pinned tick.
    cell.tornWords = 0;
    cell.mediaRate = 0;
    cell.crashTick = 1234;
    EXPECT_EQ(cell.id(),
              "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:r50:k1234");
    parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tornWords, 0u);
    EXPECT_EQ(parsed->mediaRate, 0u);
    EXPECT_EQ(parsed->recoverPct, 50u);
    EXPECT_EQ(parsed->crashTick, Tick(1234));
    EXPECT_EQ(parsed->id(), cell.id());

    // All-defaults cells keep the pre-fault-model canonical form:
    // no w/m/r tokens at all.
    CrashCell plain;
    EXPECT_EQ(plain.id(), "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62");
    parsed = CrashCell::parse(plain.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id(), plain.id());

    // The extended h axis (appDirect placements) round-trips.
    for (std::uint32_t h : {2u, 3u}) {
        CrashCell hy;
        hy.hybrid = h;
        const auto back = CrashCell::parse(hy.id());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->hybrid, h);
        EXPECT_EQ(back->id(), hy.id());
    }
}

TEST(CrashCellTest, MemoryShapeAxesRoundTrip)
{
    // a/n tokens sit between :s and the fault axes, omitted at the
    // campaign default of 4.
    CrashCell cell;
    cell.ausPerMc = 8;
    cell.numMemCtrls = 2;
    EXPECT_EQ(cell.id(), "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:a8:n2");
    auto parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ausPerMc, 8u);
    EXPECT_EQ(parsed->numMemCtrls, 2u);
    EXPECT_EQ(parsed->id(), cell.id());
    EXPECT_EQ(parsed->config().ausPerMc, 8u);
    EXPECT_EQ(parsed->config().numMemCtrls, 2u);

    // Each axis alone, and stacked with fault axes + a pinned tick.
    cell.numMemCtrls = 4;
    EXPECT_EQ(cell.id(), "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:a8");
    parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ausPerMc, 8u);
    EXPECT_EQ(parsed->numMemCtrls, 4u);
    EXPECT_EQ(parsed->id(), cell.id());

    cell.ausPerMc = 4;
    cell.numMemCtrls = 8;
    cell.tornWords = 1;
    cell.crashTick = 777;
    EXPECT_EQ(cell.id(),
              "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:n8:w1:k777");
    parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->numMemCtrls, 8u);
    EXPECT_EQ(parsed->tornWords, 1u);
    EXPECT_EQ(parsed->crashTick, Tick(777));
    EXPECT_EQ(parsed->id(), cell.id());

    // Default-shape cells keep the historical canonical form.
    CrashCell plain;
    EXPECT_EQ(plain.id(), "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62");
    EXPECT_EQ(plain.config().ausPerMc, 4u);
    EXPECT_EQ(plain.config().numMemCtrls, 4u);
}

TEST(CrashCellTest, ParseRejectsMalformedMemoryShapeAxes)
{
    const std::string base = "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62";
    // Default-valued tokens never round-trip (id() omits them), and
    // zero is invalid outright.
    EXPECT_FALSE(CrashCell::parse(base + ":a0").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":a4").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":n0").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":n4").has_value());
    // Controller counts must be a power of two (address interleave).
    EXPECT_FALSE(CrashCell::parse(base + ":n3").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":n6").has_value());
    // Non-canonical order and duplicates.
    EXPECT_FALSE(CrashCell::parse(base + ":n2:a8").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":w1:a8").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":a8:a8").has_value());
    // Valid combinations still pass.
    EXPECT_TRUE(CrashCell::parse(base + ":a1").has_value());
    EXPECT_TRUE(CrashCell::parse(base + ":n2").has_value());
    EXPECT_TRUE(CrashCell::parse(base + ":a2:n8:m200:r50").has_value());
}

// The TPC-C macro workload is a campaign citizen: its cells run end
// to end and recover consistently, off-default memory shapes
// included.
TEST(CrashCellTest, TpccCellRunsEndToEnd)
{
    CrashCell cell;
    cell.workload = "tpcc";
    cell.design = DesignKind::Atom;
    cell.cores = 2;
    cell.initialItems = 16;  // -> 4 customers/district, 64 items
    cell.txnsPerCore = 3;
    cell.ausPerMc = 2;
    cell.numMemCtrls = 2;
    EXPECT_EQ(cell.id(),
              "tpcc:atom:f50:c2:l8x2:e512:i16:t3:h0:s62:a2:n2");
    ASSERT_TRUE(CrashCell::parse(cell.id()).has_value());
    ASSERT_NE(cell.makeWorkload(), nullptr);

    const CellOutcome out = runCrashCell(cell);
    EXPECT_TRUE(out.consistent) << out.fault;
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_GT(out.crashTick, Tick(0));
}

// Pinned from the campaign: a 4 KB L2 eviction storm reorders the
// cores' pre-region loads enough that commit order diverges from
// fetch order. TPC-C's store payloads are computed functionally at
// fetch, so a crash that rolls back a fetched-earlier, committed-later
// transaction used to leave durable B+-tree nodes built on the
// rolled-back update ("separators not strictly increasing"). The
// whole-transaction RegionSerializer ticket (acquired before fetch,
// released at completion) keeps the two orders identical; this cell
// tears again if the ticket shrinks back to the Atomic_Begin..End
// window.
TEST(CrashCellTest, TpccEvictionStormCommitOrderMatchesFetchOrder)
{
    const auto cell =
        CrashCell::parse("tpcc:atom:f25:c4:l4x2:e512:i48:t12:h0:s63");
    ASSERT_TRUE(cell.has_value());
    const CellOutcome out = runCrashCell(*cell);
    EXPECT_TRUE(out.consistent) << out.fault;
    EXPECT_TRUE(out.report.criticalStateFound);
}

TEST(CrashCellTest, ParseRejectsMalformedFaultAxes)
{
    const std::string base = "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62";
    // Zero-valued fault tokens never round-trip (id() omits them).
    EXPECT_FALSE(CrashCell::parse(base + ":w0").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":m0").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":r0").has_value());
    // Out of range.
    EXPECT_FALSE(CrashCell::parse(base + ":w2").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":m65537").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":r101").has_value());
    // Non-canonical order and duplicates.
    EXPECT_FALSE(CrashCell::parse(base + ":m200:w1").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":r50:w1").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":w1:w1").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":k10:w1").has_value());
    // REDO has no torn-write detector in its frame stream; torn
    // cells are undo-design-only.
    EXPECT_FALSE(
        CrashCell::parse("hash:redo:f50:c4:l8x2:e512:i32:t10:h0:s62:w1")
            .has_value());
    // ... but the other fault axes are fine for REDO.
    EXPECT_TRUE(
        CrashCell::parse(
            "hash:redo:f50:c4:l8x2:e512:i32:t10:h0:s62:m200:r50")
            .has_value());
}

TEST(CrashCellTest, FlashTierAxesRoundTrip)
{
    // d/x tokens sit after the fault axes, before :k, omitted at the
    // tier-off default so historical IDs stay canonical.
    CrashCell cell;
    cell.durability = 2;
    EXPECT_EQ(cell.id(), "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:d2");
    auto parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->durability, 2u);
    EXPECT_EQ(parsed->destageCrash, 0u);
    EXPECT_EQ(parsed->id(), cell.id());

    // The mid-destage crash axis rides with a policy, and both sort
    // before a pinned tick.
    cell.durability = 3;
    cell.destageCrash = 1;
    cell.crashTick = 777;
    EXPECT_EQ(cell.id(),
              "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62:d3:x1:k777");
    parsed = CrashCell::parse(cell.id());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->durability, 3u);
    EXPECT_EQ(parsed->destageCrash, 1u);
    EXPECT_EQ(parsed->crashTick, Tick(777));
    EXPECT_EQ(parsed->id(), cell.id());

    // A d cell's config enables the tier with the campaign's short
    // flash latencies and maps each policy value.
    for (std::uint32_t d : {1u, 2u, 3u}) {
        CrashCell dc;
        dc.durability = d;
        const SystemConfig cfg = dc.config();
        EXPECT_TRUE(cfg.ssdTier);
        EXPECT_EQ(cfg.durabilityPolicy,
                  d == 1   ? DurabilityPolicy::Strict
                  : d == 2 ? DurabilityPolicy::Balanced
                           : DurabilityPolicy::Eventual);
    }
    EXPECT_FALSE(CrashCell{}.config().ssdTier);
}

TEST(CrashCellTest, ParseRejectsMalformedFlashTierAxes)
{
    const std::string base = "hash:atom:f50:c4:l8x2:e512:i32:t10:h0:s62";
    // Zero-valued tokens never round-trip; policies stop at eventual.
    EXPECT_FALSE(CrashCell::parse(base + ":d0").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":d4").has_value());
    // The destage-crash axis needs the tier on, and is boolean.
    EXPECT_FALSE(CrashCell::parse(base + ":x1").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":d2:x2").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":d2:x0").has_value());
    // Non-canonical order and duplicates.
    EXPECT_FALSE(CrashCell::parse(base + ":x1:d2").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":d2:d2").has_value());
    EXPECT_FALSE(CrashCell::parse(base + ":k10:d2").has_value());
    // The destage triggers are LogM truncation hooks, so the x axis is
    // undo-design-only; a plain d cell is fine for REDO.
    EXPECT_FALSE(
        CrashCell::parse(
            "hash:redo:f50:c4:l8x2:e512:i32:t10:h0:s62:d2:x1")
            .has_value());
    EXPECT_TRUE(
        CrashCell::parse("hash:redo:f50:c4:l8x2:e512:i32:t10:h0:s62:d2")
            .has_value());
}

TEST(CrashCellTest, DestageCrashCellRunsEndToEnd)
{
    CrashCell cell;
    cell.workload = "hash";
    cell.design = DesignKind::Atom;
    cell.cores = 2;
    cell.initialItems = 8;
    cell.txnsPerCore = 4;
    cell.seed = 7;
    cell.durability = 2;
    cell.destageCrash = 1;

    const CellOutcome out = runCrashCell(cell);
    EXPECT_TRUE(out.consistent) << out.fault;
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_GT(out.crashTick, Tick(0));
}

TEST(CrashCellTest, RunsOneCellEndToEnd)
{
    CrashCell cell;
    cell.workload = "queue";
    cell.design = DesignKind::Atom;
    cell.fraction = 0.5;
    cell.cores = 2;
    cell.initialItems = 8;
    cell.txnsPerCore = 4;
    cell.seed = 9;

    const CellOutcome out = runCrashCell(cell);
    EXPECT_TRUE(out.consistent) << out.fault;
    EXPECT_TRUE(out.report.criticalStateFound);
    EXPECT_GT(out.crashTick, Tick(0));
}

TEST(CrashCellTest, PinnedTickReplaysTheFractionalRun)
{
    CrashCell cell;
    cell.workload = "hash";
    cell.design = DesignKind::Atom;
    cell.cores = 2;
    cell.initialItems = 8;
    cell.txnsPerCore = 4;
    cell.seed = 5;

    const CellOutcome byFraction = runCrashCell(cell);
    cell.crashTick = byFraction.crashTick;
    const CellOutcome byTick = runCrashCell(cell);

    EXPECT_EQ(byTick.crashTick, byFraction.crashTick);
    EXPECT_EQ(byTick.consistent, byFraction.consistent);
    EXPECT_EQ(byTick.report.incompleteUpdates,
              byFraction.report.incompleteUpdates);
    EXPECT_EQ(byTick.report.linesRestored,
              byFraction.report.linesRestored);
}

// The shrinker is parameterized over the failure predicate, so a
// synthetic bug with a known minimal cell pins its behavior exactly:
// "fails whenever the crash tick is >= 1000, at least 2 cores and at
// least 2 transactions per core" has the unique greedy minimum
// {tick=1000, cores=2, txns=2, everything else floored}.
TEST(CrashCellShrinkTest, FindsTheKnownMinimalCell)
{
    const CellPredicate fails = [](const CrashCell &cell) {
        const Tick tick = cell.crashTick == 0 ? 50000 : cell.crashTick;
        return tick >= 1000 && cell.cores >= 2 && cell.txnsPerCore >= 2;
    };

    CrashCell failing;
    failing.cores = 8;
    failing.l2TileKb = 16;
    failing.initialItems = 32;
    failing.txnsPerCore = 12;
    failing.entryBytes = 512;
    ASSERT_TRUE(fails(failing));

    std::string log;
    const CrashCell minimal = shrinkCell(failing, 50000, fails, &log);

    EXPECT_EQ(minimal.crashTick, Tick(1000)) << log;
    EXPECT_EQ(minimal.cores, 2u) << log;
    EXPECT_EQ(minimal.txnsPerCore, 2u) << log;
    // Axes the predicate ignores shrink to their floors.
    EXPECT_EQ(minimal.l2TileKb, 1u) << log;
    EXPECT_EQ(minimal.initialItems, 1u) << log;
    EXPECT_EQ(minimal.entryBytes, 64u) << log;
    // Whatever comes out must itself reproduce.
    EXPECT_TRUE(fails(minimal)) << log;
}

// A predicate that couples axes (only an exact shape fails) must
// never tempt the shrinker into a non-reproducing "minimum": every
// accepted candidate satisfies the predicate by construction.
TEST(CrashCellShrinkTest, NeverReturnsANonReproducingCell)
{
    const CellPredicate fails = [](const CrashCell &cell) {
        const Tick tick = cell.crashTick == 0 ? 7777 : cell.crashTick;
        // Shrinking cores below 4 makes the bug vanish.
        return tick >= 500 && cell.cores == 4;
    };

    CrashCell failing;  // defaults: cores=4, txns=10, items=32
    ASSERT_TRUE(fails(failing));

    const CrashCell minimal = shrinkCell(failing, 7777, fails, nullptr);
    EXPECT_TRUE(fails(minimal));
    EXPECT_EQ(minimal.cores, 4u);
    EXPECT_EQ(minimal.crashTick, Tick(500));
}

// validate() rejects an L2 whose set count is not a power of two, and
// the campaign's child exits 1 on that rejection just as on a failing
// cell, so the shrinker must never propose such a capacity: the L2
// axis halves but takes no single steps (8 -> 7 KB would be 56 sets).
TEST(CrashCellShrinkTest, KeepsL2CapacityAPowerOfTwo)
{
    std::vector<std::uint32_t> proposed;
    const CellPredicate fails = [&proposed](const CrashCell &cell) {
        proposed.push_back(cell.l2TileKb);
        return cell.l2TileKb >= 3;
    };

    CrashCell failing;
    failing.l2TileKb = 16;
    ASSERT_TRUE(fails(failing));

    const CrashCell minimal = shrinkCell(failing, 0, fails, nullptr);
    EXPECT_EQ(minimal.l2TileKb, 4u);
    for (std::uint32_t kb : proposed)
        EXPECT_EQ(kb & (kb - 1), 0u) << kb << " KB proposed";
}

// regressionBody output must parse back to the same cell (the
// round-trip a maintainer does when pasting a campaign report).
TEST(CrashCellTest, RegressionBodyEmbedsAReplayableId)
{
    CrashCell cell;
    cell.workload = "sps";
    cell.design = DesignKind::Base;
    cell.crashTick = 4242;
    const std::string body = regressionBody(cell, "torn payload: ...");

    EXPECT_NE(body.find("TEST(CampaignRegressionTest, sps_base_s62)"),
              std::string::npos);
    EXPECT_NE(body.find(cell.id()), std::string::npos);
    EXPECT_NE(body.find("torn payload"), std::string::npos);

    const std::size_t quote = body.find("parse(\"");
    ASSERT_NE(quote, std::string::npos);
    const std::size_t start = quote + 7;
    const std::size_t end = body.find('"', start);
    ASSERT_NE(end, std::string::npos);
    const auto parsed = CrashCell::parse(body.substr(start, end - start));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id(), cell.id());
}

} // namespace
} // namespace atomsim
