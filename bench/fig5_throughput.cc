/**
 * @file
 * Figure 5: transaction throughput of ATOM / ATOM-OPT / NON-ATOMIC
 * normalized to BASE, for the six micro-benchmarks, small (a) and
 * large (b) dataset sizes.
 *
 * Paper reference points (gmean over the benchmarks):
 *   small: ATOM +23%, ATOM-OPT +27%, NON-ATOMIC +38%
 *   large: ATOM +24%, ATOM-OPT +33%, NON-ATOMIC +41%
 */

#include <cstdio>
#include <cstring>
#include <map>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

namespace
{

void
runFigure(bool large)
{
    const MicroParams params = microParams(large);
    const DesignKind designs[] = {DesignKind::Base, DesignKind::Atom,
                                  DesignKind::AtomOpt,
                                  DesignKind::NonAtomic};

    std::printf("\n=== Figure 5(%s): normalized txn throughput, %s "
                "datasets (%u-byte entries) ===\n",
                large ? "b" : "a", large ? "large" : "small",
                params.entryBytes);

    ReportTable table({"bench", "BASE", "ATOM", "ATOM-OPT",
                       "NON-ATOMIC", "BASE txn/s"});
    std::map<DesignKind, std::vector<double>> norm;

    for (const char *name : kMicroNames) {
        std::map<DesignKind, RunResult> res;
        for (DesignKind d : designs)
            res[d] = runCell(name, d, params);
        const double base = res[DesignKind::Base].txnPerSec;
        std::vector<std::string> row{name};
        for (DesignKind d : designs) {
            const double n = res[d].txnPerSec / base;
            row.push_back(ReportTable::num(n));
            norm[d].push_back(n);
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

    if (large) {
        std::printf("paper:  gmean ATOM=1.24 ATOM-OPT=1.33 "
                    "NON-ATOMIC=1.41 (vs BASE)\n");
    } else {
        std::printf("paper:  gmean ATOM=1.23 ATOM-OPT=1.27 "
                    "NON-ATOMIC=1.38 (vs BASE)\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    bool only_small = false;
    bool only_large = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--size=small"))
            only_small = true;
        if (!std::strcmp(argv[i], "--size=large"))
            only_large = true;
    }

    if (!only_large)
        runFigure(false);
    if (!only_small)
        runFigure(true);

    return 0;
}
