/**
 * @file
 * Experiment runner: bridges workloads to cores, runs the simulation,
 * measures throughput, and injects crashes for recovery experiments.
 */

#ifndef ATOMSIM_HARNESS_RUNNER_HH
#define ATOMSIM_HARNESS_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/system.hh"
#include "sim/random.hh"
#include "workloads/heap.hh"
#include "workloads/workload.hh"

namespace atomsim
{

/** Result of one measured simulation. */
struct RunResult
{
    std::uint64_t txns = 0;
    Tick cycles = 0;
    double txnPerSec = 0.0;       //!< at the configured clock
    std::uint64_t sqFullCycles = 0;
    std::uint64_t logWrites = 0;      //!< LogI-initiated log requests
    std::uint64_t logEntries = 0;     //!< LogM entries (incl. source)
    std::uint64_t sourceLogged = 0;
    std::uint64_t memLogWrites = 0;   //!< NVM writes for log traffic
    std::uint64_t memDataWrites = 0;
    std::uint64_t memDemandReads = 0;
    std::uint64_t memLogReads = 0;
    // Hybrid memory (zero when hybridMode == NvmOnly):
    std::uint64_t dramHits = 0;        //!< DRAM-cache read hits
    std::uint64_t dramMisses = 0;      //!< DRAM-cache read misses
    std::uint64_t dramRowHits = 0;     //!< DRAM row-buffer hits
    std::uint64_t dramWbEvictions = 0; //!< dirty victims pushed to NVM
};

/**
 * Owns a System + Workload pair and drives transactions into the
 * cores at dispatch time (timing-directed trace generation).
 */
class Runner : public TransactionSource
{
  public:
    /**
     * @param cfg           machine + design configuration
     * @param workload      the workload (owned by the caller)
     * @param txns_per_core transactions each core executes
     * @param data_bytes    heap region size
     */
    Runner(const SystemConfig &cfg, Workload &workload,
           std::uint32_t txns_per_core,
           Addr data_bytes = Addr(512) * 1024 * 1024);

    /** Functional initialization + durable snapshot. */
    void setUp();

    /** Run to completion and gather the result. */
    RunResult run(Tick limit = kTickNever);

    /**
     * Advance the simulation until all cores are done or simulated
     * time reaches @p limit, whichever comes first (no failure on an
     * unfinished run -- the slicing primitive for benches).
     */
    void advanceTo(Tick limit);

    /**
     * Run until roughly @p fraction of the work is done, then cut
     * power mid-flight. Returns the tick of the crash.
     */
    Tick runUntilCrash(double fraction, std::uint64_t crash_seed = 1);

    /**
     * Run until simulated time reaches @p tick exactly, then cut
     * power. Replays a runUntilCrash run whose crash landed at
     * @p tick event-for-event (the crash-campaign shrinker's pinned
     * bisection axis). Returns the tick of the crash.
     */
    Tick crashAt(Tick tick);

    /**
     * Flash-tier crash experiment: run until a destage is in flight
     * at some controller (a page is between its NVM snapshot and its
     * durable forwarding-map entry), jitter forward a few hundred
     * cycles, then cut power. Exercises every phase of the destage
     * state machine against recovery's rehydration pass. Falls back
     * to a run-to-completion crash (at the final tick) if no destage
     * ever starts. Returns the tick of the crash.
     */
    Tick runUntilDestageCrash(std::uint64_t crash_seed = 1);

    /**
     * Double-failure experiment (call after a crash, instead of
     * system().recover()): run recovery, interrupt it after
     * @p fraction of the record applications a complete pass would
     * perform -- tearing the in-flight record's writes when
     * cfg.tornWrites -- then restart recovery from scratch. Returns
     * the restarted (complete) pass's report. Dispatches to redo
     * recovery for the REDO design.
     */
    RecoveryReport crashDuringRecovery(double fraction);

    System &system() { return *_system; }
    Workload &workload() { return _workload; }
    PersistentHeap &heap() { return *_heap; }

    /** TransactionSource: next transaction for @p core. */
    std::optional<Transaction> next(CoreId core) override;

    /** Total transactions committed so far (across cores). */
    std::uint64_t committed() const;

    /** Collect the result counters from the stat set. */
    RunResult collect(Tick start_tick, Tick end_tick) const;

    /** Latency-histogram keys: transaction classes tracked per tenant
     * (workloads tag more classes than this get clamped to the last). */
    static constexpr std::uint32_t kTxnClasses = 3;

    /**
     * Dispatch-to-completion latency histogram of (tenant, class).
     * Tenants index [0, cfg.tenantSlots()); classes follow the
     * workload's tagTxn() labels (untagged transactions land in
     * (tenant 0, class 0)). Histograms live outside the StatSet, so
     * recording never perturbs the golden-pinned stat dumps.
     */
    const LatencyHistogram &latency(std::uint32_t tenant,
                                    std::uint32_t cls) const;

  private:
    bool allDone() const;

    std::unique_ptr<System> _system;
    Workload &_workload;
    std::uint32_t _txnsPerCore;
    std::unique_ptr<PersistentHeap> _heap;
    std::vector<std::uint32_t> _issued;
    std::vector<Random> _rngs;
    std::uint64_t _nextTxnId = 1;
    /** (tenant, class) latency histograms; tenant-major. */
    std::vector<LatencyHistogram> _latency;
};

} // namespace atomsim

#endif // ATOMSIM_HARNESS_RUNNER_HH
