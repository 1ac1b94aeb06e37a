/**
 * @file
 * Domain scenario: TPC-C new-order transactions (the paper's Section
 * VI-F case study) with a crash in the middle of the run.
 *
 * Demonstrates that a full OLTP-style workload -- shared B+-tree
 * tables, order/stock/order-line writes spanning many cache lines and
 * several memory controllers per transaction -- commits atomically
 * under ATOM and recovers to a consistent schema after power failure.
 */

#include <cstdio>

#include "harness/runner.hh"
#include "sim/logging.hh"
#include "workloads/tpcc/tpcc_workload.hh"

using namespace atomsim;

int
main()
{
    setVerbose(false);

    // Single terminal for the crash demo: store payloads are computed
    // when a transaction is dispatched, so byte-exact durable state
    // requires disjoint writers.
    SystemConfig cfg;
    cfg.design = DesignKind::AtomOpt;
    cfg.numCores = 1;
    cfg.l2Tiles = 1;
    cfg.meshRows = 1;
    cfg.ausPerMc = 1;

    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 16;
    scale.items = 256;
    TpccWorkload workload(scale);

    Runner runner(cfg, workload, /*txns_per_core=*/20,
                  Addr(128) * 1024 * 1024);
    runner.setUp();

    std::printf("TPC-C new-order on ATOM-OPT; crashing mid-run...\n");
    runner.runUntilCrash(0.5, /*crash_seed=*/7);
    std::printf("crash after %llu committed new-order transactions\n",
                (unsigned long long)runner.committed());

    const RecoveryReport report = runner.system().recover();
    std::printf("recovery rolled back %u incomplete updates "
                "(%u lines restored)\n",
                report.incompleteUpdates, report.linesRestored);

    DirectAccessor durable(runner.system().nvmImage());
    const std::string err = workload.checkConsistency(durable, 1);
    if (!err.empty()) {
        std::printf("schema check FAILED: %s\n", err.c_str());
        return 1;
    }
    std::printf("schema check passed: every table tree is intact and "
                "the order tables agree\nwith the district sequence "
                "counters -- no partially visible new-order.\n");
    return 0;
}
