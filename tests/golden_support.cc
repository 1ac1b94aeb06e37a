#include "golden_support.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "harness/runner.hh"
#include "workloads/hash_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

namespace atomsim
{
namespace golden
{

namespace
{

GoldenRun
collect(Runner &runner, TraceHasher &tracer)
{
    runner.setUp();
    const RunResult result = runner.run();
    GoldenRun r;
    r.hash = tracer.hash();
    r.deliveries = tracer.deliveries();
    r.events = runner.system().eventQueue().executed();
    r.txns = result.txns;
    r.cycles = result.cycles;
    r.stream = std::move(tracer.stream());
    r.stats = std::as_const(runner.system()).stats().dump();
    return r;
}

} // namespace

GoldenRun
runGoldenQuickstart(bool record_stream)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l2Tiles = 8;
    cfg.meshRows = 2;
    cfg.ausPerMc = 8;
    cfg.design = DesignKind::AtomOpt;

    MicroParams params;
    params.entryBytes = 256;
    params.initialItems = 24;
    params.txnsPerCore = 6;

    HashWorkload workload(params);
    Runner runner(cfg, workload, params.txnsPerCore);
    TraceHasher tracer(record_stream);
    runner.system().mesh().setTracer(&tracer);
    return collect(runner, tracer);
}

GoldenRun
runGoldenTpcc(bool record_stream)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::Atom;

    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 8;
    scale.items = 128;
    TpccWorkload workload(scale);

    Runner runner(cfg, workload, /*txns_per_core=*/4,
                  Addr(128) * 1024 * 1024);
    TraceHasher tracer(record_stream);
    runner.system().mesh().setTracer(&tracer);
    return collect(runner, tracer);
}

GoldenRun
runGoldenTpccFull(bool record_stream)
{
    const SystemConfig cfg;

    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 16;
    scale.items = 512;
    TpccWorkload workload(scale);

    Runner runner(cfg, workload, /*txns_per_core=*/2);
    TraceHasher tracer(record_stream);
    runner.system().mesh().setTracer(&tracer);
    return collect(runner, tracer);
}

std::string
renderGoldens()
{
    const GoldenRun quick = runGoldenQuickstart();
    const GoldenRun tpcc = runGoldenTpcc();
    const GoldenRun tpcc_full = runGoldenTpccFull();

    char buf[2048];
    const int len = std::snprintf(
        buf, sizeof(buf),
        "// Golden delivery-stream constants. GENERATED -- never\n"
        "// hand-edit: run `test_golden_trace --dump-goldens` and\n"
        "// commit the rewritten file together with the intentional\n"
        "// timing change that moved it.\n"
        "// clang-format off\n"
        "constexpr std::uint64_t kGoldenQuickstartHash = "
        "0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenQuickstartDeliveries = "
        "%lluull;\n"
        "constexpr std::uint64_t kGoldenTpccHash = 0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenTpccDeliveries = %lluull;\n"
        "constexpr std::uint64_t kGoldenTpccFullHash = 0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenTpccFullDeliveries = %lluull;\n"
        "constexpr std::uint64_t kGoldenTpccFullEvents = %lluull;\n"
        "// clang-format on\n",
        (unsigned long long)quick.hash,
        (unsigned long long)quick.deliveries,
        (unsigned long long)tpcc.hash,
        (unsigned long long)tpcc.deliveries,
        (unsigned long long)tpcc_full.hash,
        (unsigned long long)tpcc_full.deliveries,
        (unsigned long long)tpcc_full.events);
    if (len < 0 || std::size_t(len) >= sizeof(buf)) {
        // A truncated render would silently regenerate a truncated
        // goldens.inc (and the idempotence test would then bless it).
        std::fprintf(stderr,
                     "renderGoldens: buffer too small (%d bytes "
                     "needed)\n", len);
        std::abort();
    }
    return std::string(buf, std::size_t(len));
}

bool
maybeDumpGoldens(int argc, char **argv)
{
    bool dump = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dump-goldens") == 0)
            dump = true;
    }
    if (!dump)
        return false;

    std::printf("regenerating goldens...\n");
    const std::string contents = renderGoldens();

    const char *path = ATOMSIM_GOLDENS_PATH;
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return true;
    }
    std::fputs(contents.c_str(), f);
    std::fclose(f);

    std::printf("wrote %s:\n%s", path, contents.c_str());
    return true;
}

} // namespace golden
} // namespace atomsim
