/**
 * @file
 * The benchmark's own tests: the metric arithmetic, the tracer, the
 * crash-cell replica against runCrashCell, the Fig. 5 self-test against
 * fig5_throughput's printed gmeans, and a tiny-size smoke of every
 * workload that checks every metric of BENCHMARK.json is emitted.
 *
 * Plain asserts-that-stay (no test framework): exits non-zero when any
 * check fails. Run `perfbench_tests` from any directory.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "bench.hh"
#include "sim/logging.hh"

using namespace perfbench;
using atomsim::DesignKind;
using atomsim::LatencyHistogram;

namespace
{

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::printf("  CHECK failed at %s:%d: %s\n", __FILE__,         \
                        __LINE__, #cond);                                  \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

bool
near(double a, double b, double tol = 1e-12)
{
    return std::fabs(a - b) <= tol;
}

void
testBucketExtraction()
{
    LatencyHistogram h;
    const std::uint64_t samples[] = {0,     3,     3,     17,    250,
                                     251,   4000,  81920, 98304, 98304,
                                     98400, 1u << 20};
    Buckets expect;
    for (std::uint64_t s : samples) {
        h.record(s);
        ++expect[LatencyHistogram::bucketFloor(LatencyHistogram::bucketOf(s))];
    }
    const Buckets got = extractBuckets(h);
    CHECK(got == expect);
    CHECK(sampleCount(got) == 12);
    for (double q = 0.0; q <= 1.0; q += 0.01)
        CHECK(percentile(got, q) == h.percentile(q));

    // Merging equals recording everything into one histogram.
    LatencyHistogram a, b, both;
    for (std::uint64_t i = 1; i <= 3000; ++i) {
        const std::uint64_t lat = (i * 2654435761u) % 200000;
        (i % 3 ? a : b).record(lat);
        both.record(lat);
    }
    Buckets merged = extractBuckets(a);
    mergeBuckets(merged, extractBuckets(b));
    CHECK(merged == extractBuckets(both));
    CHECK(sampleCount(merged) == 3000);
    CHECK(percentile(merged, 0.5) == both.percentile(0.5));
    CHECK(percentile(merged, 0.99) == both.percentile(0.99));

    CHECK(extractBuckets(LatencyHistogram{}).empty());
    CHECK(percentile(Buckets{}, 0.5) == 0);
}

void
testArithmetic()
{
    CHECK(near(median({3, 1, 2}), 2));
    CHECK(near(median({4, 1, 3, 2}), 2.5));
    CHECK(near(median({}), 0));
    CHECK(near(gmean({2, 8}), 4));
    CHECK(near(gmean({2, 0}), 0));
    CHECK(near(paperErr({{1.16, 1.23}, {1.46, 1.38}}),
               (std::fabs(1.16 / 1.23 - 1) + std::fabs(1.46 / 1.38 - 1)) /
                   2));
    CHECK(near(paperErr({}), 0));
    CHECK(near(failFrac(0, 0), 0));
    CHECK(near(failFrac(1, 4), 0.25));
}

void
testSelfTimes()
{
    // job [0, 10) > build [1, 3), run [4, 9) > slice [4, 6), slice [6, 9)
    //   > gen [7, 8)
    std::vector<Span> spans = {
        {"job", 0, 10, -1, ""},  {"build", 1, 3, 0, ""},
        {"run", 4, 9, 0, ""},    {"slice", 4, 6, 2, ""},
        {"slice", 6, 9, 2, ""},  {"gen", 7, 8, 4, ""},
    };
    const auto self = selfTimes(spans);
    CHECK(near(self.at("job"), 10 - 2 - 5));
    CHECK(near(self.at("build"), 2));
    CHECK(near(self.at("run"), 0));
    CHECK(near(self.at("slice"), 2 + 2));
    CHECK(near(self.at("gen"), 1));
    double total = 0;
    for (const auto &kv : self)
        total += kv.second;
    CHECK(near(total, 10));  // self times partition the root span
}

void
testTracer()
{
    Tracer t;
    {
        SpanScope outer(&t, "harness.job");
        { SpanScope inner(&t, "harness.build"); }
        SpanScope slice(&t, "sim.slice");
        slice.setArgs("\"events\": 7");
    }
    { SpanScope none(nullptr, "ignored"); }
    CHECK(t.spans().size() == 3);
    CHECK(t.spans()[0].parent == -1);
    CHECK(t.spans()[1].parent == 0);
    CHECK(t.spans()[2].parent == 0);
    CHECK(t.spans()[2].args == "\"events\": 7");
    for (const Span &s : t.spans())
        CHECK(s.end >= s.start);

    const std::string path = "perfbench_tests_trace.json";
    CHECK(t.writeChromeJson(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    CHECK(doc.rfind("{\"displayTimeUnit\"", 0) == 0);
    CHECK(doc.find("\"cat\": \"sim\"") != std::string::npos);
    CHECK(doc.find("\"events\": 7") != std::string::npos);
    std::remove(path.c_str());
}

/** Every "name" value inside the JSON array under @p key. */
std::vector<std::string>
namesUnder(const std::string &doc, const std::string &key)
{
    std::vector<std::string> names;
    std::size_t pos = doc.find("\"" + key + "\"");
    if (pos == std::string::npos)
        return names;
    const std::size_t end = doc.find(']', pos);
    while ((pos = doc.find("\"name\"", pos)) != std::string::npos &&
           pos < end) {
        const std::size_t a = doc.find('"', doc.find(':', pos)) + 1;
        const std::size_t b = doc.find('"', a);
        names.push_back(doc.substr(a, b - a));
        pos = b;
    }
    return names;
}

void
testBenchmarkJsonMatches()
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    CHECK(bool(in));
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    const auto names = [](const std::vector<MetricDef> &defs) {
        std::vector<std::string> v;
        for (const MetricDef &d : defs)
            v.push_back(d.name);
        return v;
    };
    CHECK(namesUnder(doc, "workloads") == workloadNames());
    CHECK(namesUnder(doc, "end_to_end") == names(endToEndMetrics()));
    CHECK(namesUnder(doc, "per_layer") == names(perLayerMetrics()));
}

void
testCampaignList()
{
    const auto cells = campaignCells(crashSeeds(42));
    CHECK(cells.size() == 6900);
    CHECK(cells.front().id() == "hash:base:f25:c4:l8x2:e512:i32:t10:h0:s60");
    std::set<std::string> ids;
    for (const auto &c : cells)
        ids.insert(c.id());
    CHECK(ids.size() == cells.size());
    CHECK(makeJobs("crash-cells", 42).size() == (6900 + 7) / 8);
}

void
testCrashReplicaMatchesRunCrashCell()
{
    for (const Job &job : makeJobs("crash-cells", 42, Scale::Tiny)) {
        const atomsim::CellOutcome ref = atomsim::runCrashCell(*job.cell);
        const JobResult r = runJob(job, nullptr);
        CHECK(r.ok == ref.consistent);
        CHECK(r.cycles == ref.crashTick);
        CHECK(r.report.incompleteUpdates == ref.report.incompleteUpdates);
        CHECK(r.report.recordsApplied == ref.report.recordsApplied);
        CHECK(r.report.linesRestored == ref.report.linesRestored);
        CHECK(r.report.tornRecords == ref.report.tornRecords);
    }
}

void
testTracedRunRepeatsUntraced()
{
    for (const std::string &w : workloadNames()) {
        const std::vector<Job> jobs = makeJobs(w, 7, Scale::Tiny);
        Tracer t;
        const JobResult plain = runJob(jobs.back(), nullptr);
        const JobResult traced = runJob(jobs.back(), &t);
        CHECK(plain.ok && traced.ok);
        CHECK(plain.fingerprint == traced.fingerprint);
        const auto self = selfTimes(t.spans());
        CHECK(self.count("harness.build") && self.count("workloads.init"));
        CHECK(self.count("workloads.check") && self.count("sim.run"));
        CHECK(self.count("atom.recover") == (w == "crash-cells"));
    }
}

void
testFig5MatchesFigureBench()
{
    // fig5_throughput at its default seeds (42) prints these gmeans.
    const std::vector<Job> jobs = makeJobs("fig5", 42);
    std::vector<JobResult> results;
    for (const Job &j : jobs)
        results.push_back(runJob(j, nullptr));
    const auto g = normalizedGmeans(jobs, results);
    const auto printed = [&g](const char *fig, DesignKind d) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.2f", g.at({fig, d}));
        return std::string(buf);
    };
    CHECK(printed("fig5a", DesignKind::Atom) == "1.16");
    CHECK(printed("fig5a", DesignKind::AtomOpt) == "1.16");
    CHECK(printed("fig5a", DesignKind::NonAtomic) == "1.46");
    CHECK(printed("fig5b", DesignKind::Atom) == "1.24");
    CHECK(printed("fig5b", DesignKind::AtomOpt) == "1.24");
    CHECK(printed("fig5b", DesignKind::NonAtomic) == "1.46");
    for (const JobResult &r : results)
        CHECK(r.ok);
}

void
testSmokeEveryWorkload()
{
    for (const std::string &w : workloadNames()) {
        for (bool trace : {false, true}) {
            Options opt;
            opt.workload = w;
            opt.seed = 3;
            opt.seconds = 1;
            opt.trace = trace;
            opt.scale = Scale::Tiny;
            opt.traceOut = trace ? "perfbench_tests_smoke.json" : "";
            std::FILE *sink = std::tmpfile();
            const Outcome out = runBenchmark(opt, sink);
            std::fclose(sink);
            CHECK(out.correct);
            CHECK(out.failed == 0);
            CHECK(out.attempted >= makeJobs(w, 3, Scale::Tiny).size());
            const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
            CHECK(out.metrics.size() == defs.size());
            for (std::size_t i = 0; i < defs.size() &&
                                    i < out.metrics.size(); ++i) {
                CHECK(out.metrics[i].first == defs[i].name);
                CHECK(std::isfinite(out.metrics[i].second));
            }
            if (!trace) {
                for (const auto &[name, value] : out.metrics)
                    CHECK(value > 0);  // end-to-end metrics are never 0
            }
            const std::string line = resultJson(out, trace);
            CHECK(line.find("\"unit\": \"\"") == std::string::npos);
            if (trace) {
                std::ifstream in(opt.traceOut);
                CHECK(bool(in));
                std::remove(opt.traceOut.c_str());
            }
        }
    }
}

} // namespace

int
main()
{
    atomsim::setVerbose(false);
    const std::pair<const char *, std::function<void()>> tests[] = {
        {"bucket extraction", testBucketExtraction},
        {"arithmetic", testArithmetic},
        {"span self times", testSelfTimes},
        {"tracer", testTracer},
        {"BENCHMARK.json matches", testBenchmarkJsonMatches},
        {"campaign list", testCampaignList},
        {"crash replica", testCrashReplicaMatchesRunCrashCell},
        {"traced == untraced", testTracedRunRepeatsUntraced},
        {"fig5 self-test", testFig5MatchesFigureBench},
        {"smoke", testSmokeEveryWorkload},
    };
    for (const auto &[name, fn] : tests) {
        const int before = g_failures;
        fn();
        std::printf("%s %s\n", g_failures == before ? "PASS" : "FAIL", name);
    }
    std::printf("%s\n", g_failures ? "perfbench_tests: FAILED"
                                   : "perfbench_tests: all passed");
    return g_failures ? 1 : 0;
}
