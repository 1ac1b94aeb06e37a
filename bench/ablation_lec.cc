/**
 * @file
 * Ablation (Section IV-C): log entry collation.
 *
 * Without LEC, every log entry costs 2 NVM write requests (data line +
 * per-entry metadata line); with LEC, 7 entries share one header: 8
 * writes per 7 entries, a 57% reduction in log write requests. This
 * bench measures the NVM log-write count and throughput with LEC on
 * and off on the ATOM (posted) design.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

int
main()
{
    setVerbose(false);
    const MicroParams params = microParams(false);

    std::printf("\n=== Ablation: log entry collation (ATOM design) "
                "===\n");
    ReportTable table({"bench", "log writes (LEC)", "log writes (no LEC)",
                       "reduction", "speedup from LEC"});
    for (const char *name : {"hash", "queue", "rbtree", "btree"}) {
        SystemConfig on;
        on.enableLec = true;
        SystemConfig off;
        off.enableLec = false;
        const RunResult with_lec =
            runCell(name, DesignKind::Atom, params, on);
        const RunResult without =
            runCell(name, DesignKind::Atom, params, off);
        const double reduction =
            without.memLogWrites
                ? 100.0 * (1.0 - double(with_lec.memLogWrites) /
                                     double(without.memLogWrites))
                : 0.0;
        table.addRow({name, std::to_string(with_lec.memLogWrites),
                      std::to_string(without.memLogWrites),
                      ReportTable::num(reduction, 1) + "%",
                      ReportTable::num(with_lec.txnPerSec /
                                       without.txnPerSec)});
    }
    table.print();
    std::printf("paper:  LEC turns 2 writes/entry into 8 writes/7 "
                "entries = 42.9%% fewer writes at full records (57%% "
                "fewer vs 2/entry)\n");
    return 0;
}
