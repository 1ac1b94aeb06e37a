/**
 * @file
 * The benchmark's four workloads and the code that runs one simulated
 * system of a workload pass, timing each call into a layer.
 *
 * Every run uses the sequential kernel (numShards stays 0) and the
 * library's public API only: Runner, System, CrashCell, StatSet and
 * EventQueue.
 */

#ifndef PERFBENCH_SUITE_HH
#define PERFBENCH_SUITE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/crash_cell.hh"
#include "calibrate.hh"
#include "harness/runner.hh"
#include "metrics.hh"
#include "tracer.hh"

namespace perfbench
{

/** Input scale: Full is the benchmark; Tiny is the smoke-test size. */
enum class Scale
{
    Full,
    Tiny,
};

/** One simulated system of a workload pass: a run to completion, or a
 * crash-campaign cell when @c cell is set. */
struct Job
{
    std::string label;
    /** Throughput-normalization group ("fig5a", "fig5b", "tpcc"; empty
     * when the job is not compared against BASE). */
    std::string figure;
    /** Row within the figure (the micro-benchmark name). */
    std::string bench;
    atomsim::SystemConfig cfg;
    std::function<std::unique_ptr<atomsim::Workload>()> make;
    std::uint32_t txnsPerCore = 0;
    atomsim::Addr dataBytes = atomsim::Addr(512) * 1024 * 1024;
    /** A run still unfinished at this simulated tick fails. */
    atomsim::Tick tickLimit = atomsim::Tick(200000) * 1000 * 1000;
    std::optional<atomsim::CrashCell> cell;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The jobs of one pass of @p workload (empty for an unknown name). All
 * inputs derive from @p seed. */
std::vector<Job> makeJobs(const std::string &workload, std::uint64_t seed,
                          Scale scale = Scale::Full);

/** Crash-cell seeds for benchmark seed @p seed: five consecutive seeds,
 * chosen so seed 42 gives crash_campaign's default 60..64. */
std::vector<std::uint64_t> crashSeeds(std::uint64_t seed);

/** Every cell of the crash campaign's grid over @p seeds, in the
 * campaign's --list order. */
std::vector<atomsim::CrashCell>
campaignCells(const std::vector<std::uint64_t> &seeds);

/** What one job measured. Host times are seconds. */
struct JobResult
{
    bool ok = true;
    std::string fault;  //!< why the job failed ("" when ok)

    double buildS = 0;    //!< Runner construction (System build)
    double setupS = 0;    //!< Runner::setUp
    /** Library calls after setUp: simulation, recovery, the stats
     * dump and the consistency check. */
    double runS = 0;
    double recoveryS = 0; //!< System::recover / recoverRedo

    std::uint64_t events = 0;
    std::uint64_t wheelInserts = 0;
    std::uint64_t spillInserts = 0;
    /** Completed transactions, from the Runner::latency() histograms. */
    std::uint64_t completions = 0;
    atomsim::Tick cycles = 0;  //!< simulated ticks run (to the crash)
    /** Completion latency per transaction class, over every tenant. */
    std::array<Buckets, atomsim::Runner::kTxnClasses> latency;
    /** Counter sums keyed "group.stat" with the group's instance
     * number dropped (core3.ops adds into "core.ops"). */
    std::map<std::string, std::uint64_t> counters;
    atomsim::RecoveryReport report;
    /** Hash of every simulated output of the job; repetitions of one
     * input must reproduce it exactly. */
    std::uint64_t fingerprint = 0;
};

/**
 * Run @p job. With a tracer the run is traced: spans around every call
 * into a layer and the workload wrapped in a timing proxy. Without one
 * the same calls run untraced, timed only by phase. With @p cal, host
 * reference chunks run before the job and between simulation slices;
 * their time is excluded from the job's host times.
 */
JobResult runJob(const Job &job, Tracer *tracer,
                 Calibrator *cal = nullptr);

} // namespace perfbench

#endif // PERFBENCH_SUITE_HH
