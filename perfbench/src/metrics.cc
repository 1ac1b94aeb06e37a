#include "metrics.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

Buckets
extractBuckets(const atomsim::LatencyHistogram &h)
{
    Buckets out;
    const std::uint64_t n = h.count();
    if (n == 0)
        return out;
    if (n == 1) {
        out[h.percentile(0.0)] = 1;
        return out;
    }
    const auto at = [&h, n](std::uint64_t rank) {
        return rank + 1 >= n ? h.percentile(1.0)
                             : h.percentile((double(rank) + 0.5) /
                                            double(n - 1));
    };
    std::uint64_t rank = 0;
    while (rank < n) {
        const std::uint64_t v = at(rank);
        std::uint64_t lo = rank, hi = n - 1;  // at(lo) == v
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo + 1) / 2;
            if (at(mid) == v)
                lo = mid;
            else
                hi = mid - 1;
        }
        out[v] += lo - rank + 1;
        rank = lo + 1;
    }
    return out;
}

void
mergeBuckets(Buckets &into, const Buckets &from)
{
    for (const auto &[floor, samples] : from)
        into[floor] += samples;
}

std::uint64_t
sampleCount(const Buckets &b)
{
    std::uint64_t n = 0;
    for (const auto &kv : b)
        n += kv.second;
    return n;
}

std::uint64_t
percentile(const Buckets &b, double q)
{
    const std::uint64_t total = sampleCount(b);
    if (total == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::uint64_t(q * double(total - 1));
    std::uint64_t seen = 0;
    for (const auto &[floor, samples] : b) {
        seen += samples;
        if (seen > rank)
            return floor;
    }
    return b.rbegin()->first;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v) {
        if (!(x > 0))
            return 0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / double(v.size()));
}

double
paperErr(const std::vector<PaperPoint> &points)
{
    if (points.empty())
        return 0;
    double sum = 0;
    for (const PaperPoint &p : points)
        sum += std::fabs(p.measured / p.paper - 1.0);
    return sum / double(points.size());
}

double
failFrac(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted ? double(failed) / double(attempted) : 0.0;
}

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            child[std::size_t(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += spans[i].end - spans[i].start - child[i];
    return out;
}

} // namespace perfbench
