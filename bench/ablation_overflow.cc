/**
 * @file
 * Ablation (Section IV-E): structural and log overflow.
 *
 * Structural overflow: fewer AUS than cores makes Atomic_Begin stall
 * until a slot frees (no deadlock, bounded throughput loss).
 * Log overflow: a small initial OS log reservation triggers overflow
 * interrupts that map more pages; forward progress is preserved at an
 * interrupt-latency cost.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

int
main()
{
    setVerbose(false);
    MicroParams params = microParams(false);
    params.txnsPerCore = 12;

    std::printf("\n=== Ablation: structural overflow (AUS count) ===\n");
    {
        ReportTable table({"AUS slots", "txn/s", "normalized",
                           "stall cycles"});
        double ref = 0.0;
        for (std::uint32_t aus : {32u, 16u, 8u, 4u}) {
            SystemConfig cfg;
            cfg.ausPerMc = aus;
            auto workload = makeMicro("hash", params);
            Runner runner(cfg, *workload, params.txnsPerCore);
            runner.setUp();
            const RunResult r = runner.run(Tick(200000) * 1000 * 1000);
            const std::uint64_t stalls =
                runner.system().ausPool()->structuralStallCycles();
            if (ref == 0.0)
                ref = r.txnPerSec;
            table.addRow({std::to_string(aus),
                          ReportTable::num(r.txnPerSec, 0),
                          ReportTable::num(r.txnPerSec / ref),
                          std::to_string(stalls)});
        }
        table.print();
        std::printf("expectation: throughput degrades gracefully as "
                    "updates serialize on AUS slots; no deadlock\n");
    }

    std::printf("\n=== Ablation: log overflow (initial OS buckets) "
                "===\n");
    {
        ReportTable table({"initial buckets/MC", "txn/s", "normalized",
                           "OS interrupts"});
        double ref = 0.0;
        for (std::uint32_t initial : {0u, 16u, 4u, 2u}) {
            SystemConfig cfg;
            cfg.osInitialBucketsPerMc = initial;
            auto workload = makeMicro("queue", params);
            Runner runner(cfg, *workload, params.txnsPerCore);
            runner.setUp();
            const RunResult r = runner.run(Tick(200000) * 1000 * 1000);
            const std::uint64_t interrupts =
                runner.system().logSpace().overflowInterrupts();
            if (ref == 0.0)
                ref = r.txnPerSec;
            table.addRow({initial == 0 ? "all (256)"
                                       : std::to_string(initial),
                          ReportTable::num(r.txnPerSec, 0),
                          ReportTable::num(r.txnPerSec / ref),
                          std::to_string(interrupts)});
        }
        table.print();
        std::printf("expectation: overflow interrupts appear as the "
                    "reservation shrinks; all runs complete\n");
    }
    return 0;
}
