/**
 * @file
 * Figure 6: store-queue-full cycles of ATOM-OPT and NON-ATOMIC
 * normalized to BASE, small datasets (the paper omits sdg here).
 *
 * Paper reference points: ATOM-OPT cuts SQ-full cycles by 21% on
 * average (queue -43%, rbtree -35%, sps -1%) and sits only ~10% above
 * NON-ATOMIC.
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
    const DesignKind designs[] = {DesignKind::Base, DesignKind::AtomOpt,
                                  DesignKind::NonAtomic};

    std::printf("\n=== Figure 6: SQ-full cycles normalized to BASE "
                "(small datasets) ===\n");
    ReportTable table({"bench", "BASE", "ATOM-OPT", "NON-ATOMIC",
                       "BASE cycles"});
    std::map<DesignKind, std::vector<double>> norm;

    for (const char *name : benches) {
        std::map<DesignKind, RunResult> res;
        for (DesignKind d : designs)
            res[d] = runCell(name, d, params);
        const double base = double(res[DesignKind::Base].sqFullCycles);
        std::vector<std::string> row{name};
        for (DesignKind d : designs) {
            const double n =
                base > 0 ? double(res[d].sqFullCycles) / base : 0.0;
            row.push_back(ReportTable::num(n));
            norm[d].push_back(n > 0 ? n : 1e-3);
        }
        row.push_back(ReportTable::num(base, 0));
        table.addRow(std::move(row));
    }
    std::vector<std::string> grow{"gmean"};
    for (DesignKind d : designs)
        grow.push_back(ReportTable::num(geomean(norm[d])));
    grow.push_back("");
    table.addRow(std::move(grow));
    table.print();
    std::printf("paper:  ATOM-OPT ~0.79 of BASE on average; "
                "queue 0.57, rbtree 0.65, sps 0.99\n");

    return 0;
}
