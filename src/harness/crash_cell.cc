#include "harness/crash_cell.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "harness/runner.hh"
#include "sim/logging.hh"
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

/** Lowercase, separator-free design tokens for cell IDs (designName's
 * paper spellings contain '-', which the ID grammar uses). */
const char *
designToken(DesignKind kind)
{
    switch (kind) {
      case DesignKind::Base:      return "base";
      case DesignKind::Atom:      return "atom";
      case DesignKind::AtomOpt:   return "atomopt";
      case DesignKind::NonAtomic: return "nonatomic";
      case DesignKind::Redo:      return "redo";
    }
    return "?";
}

std::optional<DesignKind>
designFromToken(const std::string &token)
{
    for (DesignKind k : {DesignKind::Base, DesignKind::Atom,
                         DesignKind::AtomOpt, DesignKind::NonAtomic,
                         DesignKind::Redo}) {
        if (token == designToken(k))
            return k;
    }
    return std::nullopt;
}

/** Strict unsigned parse of @p s after its one-letter prefix. */
bool
parseField(const std::string &s, char prefix, std::uint64_t &out)
{
    if (s.size() < 2 || s[0] != prefix)
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str() + 1, &end, 10);
    return end && *end == '\0';
}

} // namespace

std::string
CrashCell::id() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s:%s:f%d:c%u:l%ux%u:e%u:i%u:t%u:h%u:s%llu",
                  workload.c_str(), designToken(design),
                  int(fraction * 100.0 + 0.5), cores, l2TileKb, l2Assoc,
                  entryBytes, initialItems, txnsPerCore, hybrid,
                  (unsigned long long)seed);
    std::string s = buf;
    // Tail tokens append only when off-default, in canonical
    // a < n < w < m < r < d < x < k order, so every pre-existing ID
    // stays its own canonical form.
    if (ausPerMc != 4)
        s += ":a" + std::to_string(ausPerMc);
    if (numMemCtrls != 4)
        s += ":n" + std::to_string(numMemCtrls);
    if (tornWords != 0)
        s += ":w" + std::to_string(tornWords);
    if (mediaRate != 0)
        s += ":m" + std::to_string(mediaRate);
    if (recoverPct != 0)
        s += ":r" + std::to_string(recoverPct);
    if (durability != 0)
        s += ":d" + std::to_string(durability);
    if (destageCrash != 0)
        s += ":x" + std::to_string(destageCrash);
    if (crashTick != 0) {
        std::snprintf(buf, sizeof(buf), ":k%llu",
                      (unsigned long long)crashTick);
        s += buf;
    }
    return s;
}

std::optional<CrashCell>
CrashCell::parse(const std::string &id)
{
    std::vector<std::string> tok;
    std::size_t start = 0;
    while (start <= id.size()) {
        const std::size_t colon = id.find(':', start);
        if (colon == std::string::npos) {
            tok.push_back(id.substr(start));
            break;
        }
        tok.push_back(id.substr(start, colon - start));
        start = colon + 1;
    }
    if (tok.size() < 10 || tok.size() > 18)
        return std::nullopt;

    CrashCell cell;
    cell.workload = tok[0];
    if (!cell.makeWorkload())
        return std::nullopt;
    const auto design = designFromToken(tok[1]);
    if (!design)
        return std::nullopt;
    cell.design = *design;

    std::uint64_t pct = 0, cores = 0, entry = 0, items = 0, txns = 0,
                  hyb = 0, seed = 0;
    if (!parseField(tok[2], 'f', pct) || pct > 100 ||
        !parseField(tok[3], 'c', cores) || cores == 0 ||
        !parseField(tok[5], 'e', entry) || entry == 0 || entry % 8 ||
        !parseField(tok[6], 'i', items) ||
        !parseField(tok[7], 't', txns) || txns == 0 ||
        !parseField(tok[8], 'h', hyb) || hyb > 3 ||
        !parseField(tok[9], 's', seed)) {
        return std::nullopt;
    }
    // l<KB>x<assoc>
    const std::size_t x = tok[4].find('x');
    if (tok[4].size() < 4 || tok[4][0] != 'l' || x == std::string::npos)
        return std::nullopt;
    std::uint64_t l2kb = 0, assoc = 0;
    if (!parseField(tok[4].substr(0, x), 'l', l2kb) || l2kb == 0 ||
        !parseField("x" + tok[4].substr(x + 1), 'x', assoc) || !assoc) {
        return std::nullopt;
    }

    // Optional tail tokens in canonical a < n < w < m < r < d < x < k
    // order,
    // each at most once. A value that never round-trips (id() omits
    // the token at zero for the fault axes and at the default 4 for
    // the shape axes) is malformed, like k0 or a4.
    std::size_t next = 10;
    std::uint64_t aus = 4, mcs = 4;
    if (next < tok.size() && parseField(tok[next], 'a', aus)) {
        if (aus == 0 || aus == 4)
            return std::nullopt;
        ++next;
    } else {
        aus = 4;
    }
    if (next < tok.size() && parseField(tok[next], 'n', mcs)) {
        if (mcs == 0 || mcs == 4 || (mcs & (mcs - 1)) != 0)
            return std::nullopt;
        ++next;
    } else {
        mcs = 4;
    }
    std::uint64_t torn = 0, media = 0, rpct = 0;
    if (next < tok.size() && parseField(tok[next], 'w', torn)) {
        if (torn != 1)
            return std::nullopt;
        ++next;
    }
    if (next < tok.size() && parseField(tok[next], 'm', media)) {
        if (media == 0 || media > 65536)
            return std::nullopt;
        ++next;
    }
    if (next < tok.size() && parseField(tok[next], 'r', rpct)) {
        if (rpct == 0 || rpct > 100)
            return std::nullopt;
        ++next;
    }
    std::uint64_t dur = 0, dcrash = 0;
    if (next < tok.size() && parseField(tok[next], 'd', dur)) {
        if (dur == 0 || dur > 3)
            return std::nullopt;
        ++next;
    }
    if (next < tok.size() && parseField(tok[next], 'x', dcrash)) {
        // Crashing mid-destage needs the tier on, and the destage
        // triggers are LogM truncation hooks -- undo designs only.
        if (dcrash != 1 || dur == 0)
            return std::nullopt;
        if (cell.design != DesignKind::Base &&
            cell.design != DesignKind::Atom &&
            cell.design != DesignKind::AtomOpt) {
            return std::nullopt;
        }
        ++next;
    }
    if (next < tok.size()) {
        std::uint64_t tick = 0;
        if (!parseField(tok[next], 'k', tick) || tick == 0)
            return std::nullopt;
        cell.crashTick = tick;
        ++next;
    }
    if (next != tok.size())
        return std::nullopt;

    // The REDO comparator's frame stream has no torn-write detector
    // (its meta line is magic + count + raw slot words); torn-write
    // cells are only meaningful for the checksummed undo designs.
    if (torn != 0 && cell.design == DesignKind::Redo)
        return std::nullopt;

    cell.fraction = double(pct) / 100.0;
    cell.cores = std::uint32_t(cores);
    cell.l2TileKb = std::uint32_t(l2kb);
    cell.l2Assoc = std::uint32_t(assoc);
    cell.entryBytes = std::uint32_t(entry);
    cell.initialItems = std::uint32_t(items);
    cell.txnsPerCore = std::uint32_t(txns);
    cell.hybrid = std::uint32_t(hyb);
    cell.seed = seed;
    cell.ausPerMc = std::uint32_t(aus);
    cell.numMemCtrls = std::uint32_t(mcs);
    cell.tornWords = std::uint32_t(torn);
    cell.mediaRate = std::uint32_t(media);
    cell.recoverPct = std::uint32_t(rpct);
    cell.durability = std::uint32_t(dur);
    cell.destageCrash = std::uint32_t(dcrash);
    return cell;
}

SystemConfig
CrashCell::config() const
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.l2Tiles = cores;
    cfg.meshRows = cores >= 4 ? 2 : 1;
    cfg.ausPerMc = ausPerMc;
    cfg.numMemCtrls = numMemCtrls;
    cfg.design = design;
    cfg.l2TileBytes = l2TileKb * 1024;
    cfg.l2Assoc = l2Assoc;
    // The machine seed stays at its default: the cell seed drives the
    // workload, the crash jitter AND the fault-injection hashes, so a
    // cell ID replays a bug report on a stock machine verbatim.
    if (hybrid != 0) {
        // Keep the volatile tier small: with the default 16 MB per MC
        // the whole working set lives in DRAM, every dangerous
        // writeback is absorbed, and the NVM crash path under test is
        // never exercised.
        cfg.hybridMode =
            hybrid == 1 ? HybridMode::MemoryMode : HybridMode::AppDirect;
        cfg.appDirectRegion = hybrid == 3 ? AppDirectRegion::DataRegion
                                          : AppDirectRegion::LogRegion;
        cfg.dramCacheMBPerMc = 1;
    }
    // TPC-C's atomic regions mutate SHARED structures (B+-trees,
    // district rows); crash consistency then requires the lock-based
    // isolation ATOM assumes from software, emulated by serializing
    // regions. The per-core micro workloads never share written lines.
    cfg.serializeAtomicRegions = workload == "tpcc";
    cfg.tornWrites = tornWords != 0;
    cfg.mediaErrorPer64k = mediaRate;
    cfg.faultSeed = seed;
    if (durability != 0) {
        // Flash tier: aggressive destaging (watermark 0) and short
        // flash latencies so the small campaign runs actually push
        // pages through the whole pipeline before their crash point.
        cfg.ssdTier = true;
        cfg.durabilityPolicy = durability == 1 ? DurabilityPolicy::Strict
                               : durability == 2
                                   ? DurabilityPolicy::Balanced
                                   : DurabilityPolicy::Eventual;
        cfg.ssdColdPageWatermark = 0;
        cfg.ssdFlashPagesPerMc = 256;
        cfg.ssdMaxDestageBacklog = 4;
        cfg.ssdReadLatency = 2000;
        cfg.ssdProgramLatency = 5000;
    }
    cfg.validate();
    return cfg;
}

MicroParams
CrashCell::params() const
{
    MicroParams p;
    p.entryBytes = entryBytes;
    p.initialItems = initialItems;
    p.txnsPerCore = txnsPerCore;
    p.seed = seed;
    return p;
}

std::unique_ptr<Workload>
CrashCell::makeWorkload() const
{
    const MicroParams p = params();
    if (workload == "hash")
        return std::make_unique<HashWorkload>(p);
    if (workload == "queue")
        return std::make_unique<QueueWorkload>(p);
    if (workload == "btree")
        return std::make_unique<BTreeWorkload>(p);
    if (workload == "rbtree")
        return std::make_unique<RbTreeWorkload>(p);
    if (workload == "sdg")
        return std::make_unique<SdgWorkload>(p);
    if (workload == "sps")
        return std::make_unique<SpsWorkload>(p);
    if (workload == "tpcc") {
        // The shrinker drives initialItems, so the whole database
        // scales (monotonically) from that one axis; entryBytes has
        // no meaning for the fixed TPC-C row layouts.
        tpcc::ScaleParams scale;
        scale.customersPerDistrict = std::max(4u, initialItems / 4);
        scale.items = std::max(32u, initialItems * 4);
        return std::make_unique<TpccWorkload>(scale);
    }
    return nullptr;
}

CellOutcome
runCrashCell(const CrashCell &cell)
{
    CellOutcome out;
    auto workload = cell.makeWorkload();
    if (!workload) {
        out.fault = "unknown workload: " + cell.workload;
        return out;
    }
    const SystemConfig cfg = cell.config();
    Runner runner(cfg, *workload, cell.txnsPerCore,
                  Addr(64) * 1024 * 1024);
    runner.setUp();
    // A pinned tick always replays exactly (the shrinker's bisection
    // axis, also for destage-crash cells); otherwise the x axis hunts
    // for an in-flight destage and the default jitters by fraction.
    out.crashTick = cell.crashTick != 0 ? runner.crashAt(cell.crashTick)
                    : cell.destageCrash != 0
                        ? runner.runUntilDestageCrash(cell.seed)
                        : runner.runUntilCrash(cell.fraction, cell.seed);
    if (cell.recoverPct > 0) {
        // Double-failure cell: recovery itself crashes part-way (its
        // in-flight writes torn when the w axis is also set), then
        // restarts from scratch.
        out.report =
            runner.crashDuringRecovery(double(cell.recoverPct) / 100.0);
    } else {
        out.report = cfg.design == DesignKind::Redo
                         ? runner.system().recoverRedo()
                         : runner.system().recover();
    }
    out.mediaRetries = runner.system().stats().sum("mc", "media_retries");
    out.hardMediaFaults =
        std::uint32_t(runner.system().mediaFaults().size());
    if (cfg.design == DesignKind::NonAtomic) {
        // Liveness probe: NON-ATOMIC guarantees nothing across a
        // crash, so there is no consistency to check and no ADR
        // critical state to find. Reaching this point at all is the
        // verdict.
        out.consistent = true;
        return out;
    }
    DirectAccessor durable(runner.system().nvmImage());
    out.fault = workload->checkConsistency(durable, cfg.numCores);
    if (out.fault.empty() && !out.report.criticalStateFound)
        out.fault = "recovery: ADR critical state missing";
    out.consistent = out.fault.empty();
    return out;
}

CrashCell
shrinkCell(const CrashCell &failing, Tick failTick,
           const CellPredicate &fails, std::string *log)
{
    auto note = [log](const std::string &line) {
        if (log) {
            *log += line;
            *log += '\n';
        }
    };

    CrashCell best = failing;

    // Pin the crash tick so the bisection axis is stable. Replaying
    // the observed tick is byte-identical to the fractional run by
    // determinism; if the caller's failTick does not reproduce (stale
    // report, wrong cell), fall back to the fractional crash.
    if (best.crashTick == 0 && failTick != 0) {
        CrashCell pinned = best;
        pinned.crashTick = failTick;
        if (fails(pinned)) {
            best = pinned;
            note("pin: crash tick " + std::to_string(failTick));
        } else {
            note("pin: tick " + std::to_string(failTick) +
                 " did not reproduce; keeping fractional crash");
        }
    }

    // Bisect to the earliest failing crash tick. Crashing at tick 0
    // recovers the setUp snapshot, which is consistent by
    // construction, so the invariant lo=passing / hi=failing holds.
    const auto bisectTick = [&] {
        if (best.crashTick == 0)
            return;
        Tick lo = 0;
        Tick hi = best.crashTick;
        while (hi - lo > 1) {
            const Tick mid = lo + (hi - lo) / 2;
            CrashCell cand = best;
            cand.crashTick = mid;
            if (fails(cand))
                hi = mid;
            else
                lo = mid;
        }
        if (hi != best.crashTick) {
            note("bisect: crash tick " +
                 std::to_string(best.crashTick) + " -> " +
                 std::to_string(hi));
            best.crashTick = hi;
        }
    };
    bisectTick();

    // Greedy shrink over every shrinkable axis, to a fixed point:
    // halve while the failure reproduces, then refine by single steps
    // (halving 12 visits 6, 3, 1 and would miss a true minimum of 2).
    // Any accepted shrink moves the timeline, so re-bisect the tick
    // after each productive round.
    const auto tryShrink = [&](CrashCell cand, const char *what) {
        if (!fails(cand))
            return false;
        best = cand;
        note(std::string("shrink ") + what + ": " + best.id());
        return true;
    };
    const auto shrinkAxis = [&](std::uint32_t CrashCell::*axis,
                                std::uint32_t floor, std::uint32_t step,
                                const char *what) {
        bool changed = false;
        while (best.*axis / 2 >= floor) {
            CrashCell cand = best;
            cand.*axis = best.*axis / 2;
            if (!tryShrink(cand, what))
                break;
            changed = true;
        }
        while (best.*axis >= floor + step) {
            CrashCell cand = best;
            cand.*axis = best.*axis - step;
            if (!tryShrink(cand, what))
                break;
            changed = true;
        }
        return changed;
    };
    // A fault axis shrinks to "off" when the failure reproduces
    // without it (the bug is then not the fault model's doing).
    const auto tryZeroAxis = [&](std::uint32_t CrashCell::*axis,
                                 const char *what) {
        if (best.*axis == 0)
            return false;
        CrashCell cand = best;
        cand.*axis = 0;
        return tryShrink(cand, what);
    };
    // A memory-shape axis shrinks back to the campaign default of 4
    // when the failure reproduces there (the ID then drops the token).
    const auto tryDefaultAxis = [&](std::uint32_t CrashCell::*axis,
                                    const char *what) {
        if (best.*axis == 4)
            return false;
        CrashCell cand = best;
        cand.*axis = 4;
        return tryShrink(cand, what);
    };
    for (int round = 0; round < 8; ++round) {
        bool changed = false;
        changed |= shrinkAxis(&CrashCell::cores, 1, 1, "cores");
        changed |= shrinkAxis(&CrashCell::l2TileKb, 1, 1, "l2kb");
        changed |= shrinkAxis(&CrashCell::txnsPerCore, 1, 1, "txns");
        changed |= shrinkAxis(&CrashCell::initialItems, 1, 1, "items");
        // entryBytes must stay a multiple of 8 (and a word of payload).
        changed |= shrinkAxis(&CrashCell::entryBytes, 64, 8, "entry");
        changed |= tryDefaultAxis(&CrashCell::ausPerMc, "aus-default");
        changed |= tryDefaultAxis(&CrashCell::numMemCtrls,
                                  "mcs-default");
        // Fault axes: first try dropping each fault entirely, then
        // (for the rate-like axes) halve toward the weakest setting
        // that still reproduces.
        changed |= tryZeroAxis(&CrashCell::tornWords, "torn-off");
        changed |= tryZeroAxis(&CrashCell::mediaRate, "media-off");
        changed |= tryZeroAxis(&CrashCell::recoverPct, "rcrash-off");
        // Flash-tier axes: the destage-crash hunt must drop before the
        // tier itself can (an x token without d is malformed).
        changed |= tryZeroAxis(&CrashCell::destageCrash,
                               "destage-crash-off");
        if (best.destageCrash == 0)
            changed |= tryZeroAxis(&CrashCell::durability,
                                   "durability-off");
        changed |= shrinkAxis(&CrashCell::mediaRate, 1, 1, "media");
        changed |= shrinkAxis(&CrashCell::recoverPct, 1, 1, "rcrash");
        if (!changed)
            break;
        bisectTick();
    }
    return best;
}

std::string
regressionBody(const CrashCell &cell, const std::string &fault)
{
    std::string name = cell.workload;
    name += '_';
    name += designToken(cell.design);
    name += "_s" + std::to_string(cell.seed);
    if (cell.ausPerMc != 4)
        name += "_a" + std::to_string(cell.ausPerMc);
    if (cell.numMemCtrls != 4)
        name += "_n" + std::to_string(cell.numMemCtrls);
    if (cell.tornWords != 0)
        name += "_w" + std::to_string(cell.tornWords);
    if (cell.mediaRate != 0)
        name += "_m" + std::to_string(cell.mediaRate);
    if (cell.recoverPct != 0)
        name += "_r" + std::to_string(cell.recoverPct);
    if (cell.durability != 0)
        name += "_d" + std::to_string(cell.durability);
    if (cell.destageCrash != 0)
        name += "_x" + std::to_string(cell.destageCrash);

    std::string out;
    out += "// Shrunk by bench/crash_campaign.cc from a failing sweep "
           "cell. Fault was:\n";
    out += "//   " + fault + "\n";
    out += "TEST(CampaignRegressionTest, " + name + ")\n";
    out += "{\n";
    out += "    const auto cell = CrashCell::parse(\"" + cell.id() +
           "\");\n";
    out += "    ASSERT_TRUE(cell.has_value());\n";
    out += "    const CellOutcome out = runCrashCell(*cell);\n";
    out += "    EXPECT_TRUE(out.report.criticalStateFound);\n";
    out += "    EXPECT_EQ(out.fault, \"\");\n";
    out += "}\n";
    return out;
}

} // namespace atomsim
