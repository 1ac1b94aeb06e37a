/**
 * @file
 * Pure arithmetic behind the benchmark's reported numbers: latency
 * bucket extraction and merging, medians, paper error and span self
 * time. Kept free of simulation so the unit tests pin each formula.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/report.hh"

namespace perfbench
{

/** Latency histogram as (bucket floor in cycles -> samples). */
using Buckets = std::map<std::uint64_t, std::uint64_t>;

/**
 * Recover the per-bucket sample counts of @p h through its public
 * percentile() alone: rank r of n sits at quantile (r + 0.5) / (n - 1)
 * under LatencyHistogram's nearest-rank definition, and the rank ->
 * bucket map is monotone, so one binary search per occupied bucket
 * finds its last rank.
 */
Buckets extractBuckets(const atomsim::LatencyHistogram &h);

/** Add every sample of @p from into @p into. */
void mergeBuckets(Buckets &into, const Buckets &from);

/** Samples held in @p b. */
std::uint64_t sampleCount(const Buckets &b);

/**
 * Bucket floor at quantile @p q, with LatencyHistogram::percentile's
 * nearest-rank definition (rank floor(q * (n - 1))); 0 when empty.
 */
std::uint64_t percentile(const Buckets &b, double q);

/** Median of @p v (mean of the middle two for even sizes; 0 if empty). */
double median(std::vector<double> v);

/** Geometric mean (0 if empty or any value is not positive). */
double gmean(const std::vector<double> &v);

/** One measured value against the paper's reference value. */
struct PaperPoint
{
    double measured = 0;
    double paper = 0;
};

/** Mean of |measured / paper - 1| over @p points (0 if empty). */
double paperErr(const std::vector<PaperPoint> &points);

/** failed / attempted (0 when nothing was attempted). */
double failFrac(std::uint64_t failed, std::uint64_t attempted);

/** One closed span: [start, end) seconds, parent index or -1. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::string args;  //!< JSON object body (without braces) or ""
};

/**
 * Self time per span name: each span's duration minus the durations of
 * its direct children, summed over spans of that name.
 */
std::map<std::string, double> selfTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
