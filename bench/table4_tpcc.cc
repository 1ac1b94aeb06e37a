/**
 * @file
 * Table IV: TPC-C new-order throughput normalized to BASE, 32
 * terminals, wait times removed.
 *
 * Paper reference points: ATOM 1.58x, ATOM-OPT 1.60x, REDO 1.47x over
 * BASE; ~0.02% of log operations source-logged; ATOM-OPT cuts SQ-full
 * cycles by 42%.
 */

#include <cstdio>
#include <map>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

namespace
{

RunResult
runTpcc(DesignKind design)
{
    SystemConfig cfg;
    cfg.design = design;
    // Reduced scale: 8 terminals (vs the paper's 32) and reduced table
    // cardinalities. The design comparison is unaffected, since all
    // designs share the workload. Run time does not bound the scale:
    // the whole table runs in about 0.15 s (Release, 4-core Xeon).
    cfg.numCores = 8;
    cfg.l2Tiles = 8;
    cfg.meshRows = 2;
    cfg.ausPerMc = 8;
    // TPC-C new-order writes ~10x more lines per update than the
    // micro-benchmarks, and BASE burns a whole record per entry: the
    // OS log reservation must scale with demand (Section IV-E).
    cfg.bucketsPerMc = 2048;
    tpcc::ScaleParams scale;  // SF=1: 1 warehouse, 10 districts
    scale.customersPerDistrict = 32;
    scale.items = 256;
    TpccWorkload workload(scale);
    Runner runner(cfg, workload, /*txns_per_core=*/5);
    runner.setUp();
    return runner.run(Tick(400000) * 1000 * 1000);
}

} // namespace

int
main()
{
    setVerbose(false);

    std::printf("\n=== Table IV: TPC-C new-order throughput "
                "normalized to BASE ===\n");
    const DesignKind designs[] = {DesignKind::Base, DesignKind::Atom,
                                  DesignKind::AtomOpt, DesignKind::Redo};
    std::map<DesignKind, RunResult> res;
    for (DesignKind d : designs) {
        res[d] = runTpcc(d);
        std::printf("  ran %s: %.0f txn/s\n", designName(d),
                    res[d].txnPerSec);
        std::fflush(stdout);
    }

    const double base = res[DesignKind::Base].txnPerSec;
    ReportTable table({"design", "normalized", "txn/s", "sq_full vs BASE",
                       "% source logged"});
    for (DesignKind d : designs) {
        const RunResult &r = res[d];
        const double sq_rel =
            res[DesignKind::Base].sqFullCycles
                ? double(r.sqFullCycles) /
                      double(res[DesignKind::Base].sqFullCycles)
                : 0.0;
        const double src_pct =
            r.logEntries
                ? 100.0 * double(r.sourceLogged) / double(r.logEntries)
                : 0.0;
        table.addRow({designName(d),
                      ReportTable::num(r.txnPerSec / base),
                      ReportTable::num(r.txnPerSec, 0),
                      ReportTable::num(sq_rel),
                      ReportTable::num(src_pct, 3)});
    }
    table.print();
    std::printf("paper:  ATOM 1.58, ATOM-OPT 1.60, REDO 1.47 (vs "
                "BASE); ATOM-OPT SQ-full 0.58 of BASE; 0.02%% source "
                "logged\n");
    return 0;
}
