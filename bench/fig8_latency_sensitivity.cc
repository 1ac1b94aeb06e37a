/**
 * @file
 * Figure 8: rbtree (small) transaction throughput of ATOM-OPT vs REDO
 * while NVM latency sweeps 1x..40x DRAM latency.
 *
 * Paper reference points: at DRAM-like latency REDO wins (its many log
 * writes absorb quickly and it never flushes data at commit); as
 * latency grows REDO degrades super-linearly under its bandwidth
 * demand while ATOM-OPT degrades roughly linearly, crossing over by
 * 5-10x.
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

    // DRAM-equivalent latencies: the paper's NVM default (360/240) is
    // 10x DRAM write latency, so 1x = 36/24 core cycles.
    const struct
    {
        const char *label;
        Cycles write;
        Cycles read;
    } points[] = {
        {"1x", 36, 24},   {"5x", 180, 120}, {"10x", 360, 240},
        {"20x", 720, 480}, {"40x", 1440, 960},
    };

    std::printf("\n=== Figure 8: rbtree throughput vs NVM latency "
                "(txn/s) ===\n");
    ReportTable table({"latency", "ATOM-OPT", "REDO", "REDO/ATOM-OPT"});
    for (const auto &pt : points) {
        SystemConfig cfg;
        cfg.nvmWriteLatency = pt.write;
        cfg.nvmReadLatency = pt.read;
        const RunResult opt =
            runCell("rbtree", DesignKind::AtomOpt, params, cfg);
        const RunResult redo =
            runCell("rbtree", DesignKind::Redo, params, cfg);
        table.addRow({pt.label, ReportTable::num(opt.txnPerSec, 0),
                      ReportTable::num(redo.txnPerSec, 0),
                      ReportTable::num(redo.txnPerSec / opt.txnPerSec)});
    }
    table.print();
    std::printf("paper:  REDO above ATOM-OPT at 1x, crossing below as "
                "latency grows; ATOM-OPT degrades ~linearly\n");
    return 0;
}
