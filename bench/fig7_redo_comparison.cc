/**
 * @file
 * Figure 7: REDO vs ATOM-OPT transaction throughput, normalized to
 * ATOM-OPT, in the single-channel and two-channel (-2C, dedicated log
 * channel) memory configurations; small datasets (the paper omits sdg).
 *
 * Paper reference points: REDO reaches ~22% of ATOM-OPT's throughput
 * with one channel and ~30% with two (log reads stop interfering with
 * demand reads); REDO generates ~19x more log entries.
 */

#include <cstdio>
#include <map>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

int
main()
{
    setVerbose(false);
    const MicroParams params = microParams(false);
    const char *benches[] = {"btree", "hash", "queue", "rbtree", "sps"};

    struct Variant
    {
        const char *label;
        DesignKind design;
        std::uint32_t channels;
    };
    const Variant variants[] = {
        {"ATOM-OPT", DesignKind::AtomOpt, 1},
        {"ATOM-OPT-2C", DesignKind::AtomOpt, 2},
        {"REDO", DesignKind::Redo, 1},
        {"REDO-2C", DesignKind::Redo, 2},
    };

    std::printf("\n=== Figure 7: throughput normalized to ATOM-OPT "
                "(small datasets) ===\n");
    ReportTable table({"bench", "ATOM-OPT", "ATOM-OPT-2C", "REDO",
                       "REDO-2C", "redo/atom entries"});
    std::map<const char *, std::vector<double>> norm;

    for (const char *name : benches) {
        std::map<const char *, RunResult> res;
        for (const Variant &v : variants) {
            SystemConfig cfg;
            cfg.channelsPerMc = v.channels;
            res[v.label] = runCell(name, v.design, params, cfg);
        }
        const double ref = res["ATOM-OPT"].txnPerSec;
        std::vector<std::string> row{name};
        for (const Variant &v : variants) {
            const double n = res[v.label].txnPerSec / ref;
            row.push_back(ReportTable::num(n));
            norm[v.label].push_back(n);
        }
        const double ratio =
            res["ATOM-OPT"].logEntries
                ? double(res["REDO"].logEntries) /
                      double(res["ATOM-OPT"].logEntries)
                : 0.0;
        row.push_back(ReportTable::num(ratio, 1) + "x");
        table.addRow(std::move(row));
    }
    std::vector<std::string> grow{"gmean"};
    for (const Variant &v : variants)
        grow.push_back(ReportTable::num(geomean(norm[v.label])));
    grow.push_back("");
    table.addRow(std::move(grow));
    table.print();
    std::printf("paper:  REDO ~0.22 of ATOM-OPT (1 channel), ~0.30 "
                "with a dedicated log channel; ~19x log entries\n");
    return 0;
}
