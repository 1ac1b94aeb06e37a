/**
 * @file
 * atombench: the benchmark's command line.
 *
 *   atombench --workload <fig5|tpcc|kv-serving|crash-cells> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file.json>]
 *
 * Prints progress and tables, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Exits 2 on a bad
 * command line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "sim/logging.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "atombench: %s\nusage: atombench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\nworkloads:",
                 why);
    for (const std::string &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *s, unsigned long long &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *s != '\0' && *s != '-' && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        unsigned long long n = 0;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            if (!parseUnsigned(val, n))
                return usage("--seed takes an unsigned integer");
            opt.seed = n;
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(val, n) || n == 0 || n > 3600)
                return usage("--seconds takes an integer in [1, 3600]");
            opt.seconds = double(n);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (!parseUnsigned(val, n) || n > 1)
                return usage("--trace takes 0 or 1");
            opt.trace = n == 1;
            have_trace = true;
        } else if (arg == "--trace-out") {
            opt.traceOut = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    if (perfbench::makeJobs(opt.workload, opt.seed).empty())
        return usage(("unknown workload " + opt.workload).c_str());

    atomsim::setVerbose(false);
    std::printf("atombench: workload %s, seed %llu, %g s, trace %d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, int(opt.trace));
    const perfbench::Outcome out = perfbench::runBenchmark(opt, stdout);
    for (const auto &[name, value] : out.metrics)
        std::printf("  %-36s %.6g\n", name.c_str(), value);
    std::printf("%s\n", perfbench::resultJson(out, opt.trace).c_str());
    return 0;
}
