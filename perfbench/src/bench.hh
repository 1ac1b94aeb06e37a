/**
 * @file
 * One benchmark run: repeat a workload's pass for the requested host
 * time, check every simulated output, and reduce the passes to the
 * named metrics of BENCHMARK.json.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "suite.hh"

namespace perfbench
{

/** A reported metric's name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of an untraced run (--trace 0): what a user sees. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of a traced run (--trace 1): one layer each. */
const std::vector<MetricDef> &perLayerMetrics();

/** A paper reference value and where it comes from. */
struct PaperRef
{
    const char *figure;  //!< Job::figure it is compared against
    atomsim::DesignKind design;
    double value;        //!< throughput normalized to BASE
    const char *source;
};

/** The paper's reference values (Fig. 5 gmeans, Table IV). */
const std::vector<PaperRef> &paperRefs();

/**
 * Throughput of each design over BASE, as the gmean over the figure's
 * benches, keyed (figure, design). Throughput is completions per
 * simulated cycle, the quantity fig5_throughput and table4_tpcc
 * normalize.
 */
std::map<std::pair<std::string, atomsim::DesignKind>, double>
normalizedGmeans(const std::vector<Job> &jobs,
                 const std::vector<JobResult> &results);

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;  //!< Chrome trace path ("" = not written)
    Scale scale = Scale::Full;
};

struct Outcome
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** (name, value) in endToEndMetrics() / perLayerMetrics() order. */
    std::vector<std::pair<std::string, double>> metrics;
};

/** Run the benchmark; human-readable progress goes to @p log. */
Outcome runBenchmark(const Options &opt, std::FILE *log);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Outcome &out, bool trace);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
