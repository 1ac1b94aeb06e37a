/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries.
 *
 * Each bench binary regenerates one table or figure of the paper:
 * it runs the relevant configurations and prints the paper-style rows,
 * normalized the same way the paper normalizes.
 */

#ifndef ATOMSIM_BENCH_BENCH_COMMON_HH
#define ATOMSIM_BENCH_BENCH_COMMON_HH

#include <memory>
#include <string>

#include "harness/report.hh"
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
namespace bench
{

/** The six micro-benchmarks in the paper's figure order. */
inline const char *kMicroNames[] = {"btree", "hash",   "queue",
                                    "rbtree", "sdg",   "sps"};

/** Construct a micro-benchmark by name. */
inline std::unique_ptr<Workload>
makeMicro(const std::string &name, const MicroParams &params)
{
    // sps uses a working set larger than the caches (random swaps over
    // a big array); the paper's flat sps bars imply a miss-dominated
    // array, not an L1-resident one.
    MicroParams p = params;
    if (name == "sps")
        p.initialItems = params.entryBytes >= 4096 ? 512 : 2048;
    if (name == "hash")
        return std::make_unique<HashWorkload>(p);
    if (name == "queue")
        return std::make_unique<QueueWorkload>(p);
    if (name == "rbtree")
        return std::make_unique<RbTreeWorkload>(p);
    if (name == "btree")
        return std::make_unique<BTreeWorkload>(p);
    if (name == "sdg")
        return std::make_unique<SdgWorkload>(p);
    if (name == "sps")
        return std::make_unique<SpsWorkload>(p);
    return nullptr;
}

/** Paper dataset-size presets. */
inline MicroParams
microParams(bool large)
{
    MicroParams p;
    if (large) {
        p.entryBytes = 4096;
        p.initialItems = 24;
        p.txnsPerCore = 10;
    } else {
        p.entryBytes = 512;
        p.initialItems = 48;
        p.txnsPerCore = 20;
    }
    return p;
}

/** Run one (workload, design) cell on the full Table I machine. */
inline RunResult
runCell(const std::string &workload_name, DesignKind design,
        const MicroParams &params, SystemConfig base_cfg = SystemConfig{})
{
    SystemConfig cfg = base_cfg;
    cfg.design = design;
    auto workload = makeMicro(workload_name, params);
    Runner runner(cfg, *workload, params.txnsPerCore);
    runner.setUp();
    return runner.run(Tick(200000) * 1000 * 1000);
}

} // namespace bench
} // namespace atomsim

#endif // ATOMSIM_BENCH_BENCH_COMMON_HH
