/**
 * @file
 * Table III: percentage of source-logged cache lines under ATOM-OPT,
 * small and large datasets.
 *
 * Source logging triggers when a read-exclusive fill reaches the
 * memory controller during an atomic update (a full-hierarchy store
 * miss); the paper reports small fractions (0.01%..0.7%) that grow
 * with the dataset size.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

int
main()
{
    setVerbose(false);

    std::printf("\n=== Table III: %% of source-logged lines "
                "(ATOM-OPT) ===\n");
    ReportTable table({"bench", "small %", "large %", "small entries",
                       "large entries"});

    for (const char *name : kMicroNames) {
        double pct[2];
        std::uint64_t entries[2];
        for (int large = 0; large < 2; ++large) {
            const RunResult r = runCell(name, DesignKind::AtomOpt,
                                        microParams(large != 0));
            entries[large] = r.logEntries;
            pct[large] = r.logEntries
                             ? 100.0 * double(r.sourceLogged) /
                                   double(r.logEntries)
                             : 0.0;
        }
        table.addRow({name, ReportTable::num(pct[0]),
                      ReportTable::num(pct[1]),
                      std::to_string(entries[0]),
                      std::to_string(entries[1])});
    }
    table.print();
    std::printf("paper (small): btree 0.12, hash 0.12, queue 0.07, "
                "rbtree 0.01, sdg 0.04, sps 0.01\n");
    std::printf("paper (large): btree 0.4, hash 0.4, queue 0.7, "
                "rbtree 0.4, sdg 0.07, sps 0.01\n");
    std::printf("expectation: the large-dataset fraction exceeds the "
                "small one (more store misses reach memory)\n");
    return 0;
}
