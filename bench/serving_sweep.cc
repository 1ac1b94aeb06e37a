/**
 * @file
 * Multi-tenant serving sweep (plain chrono; always builds).
 *
 * Runs the zipfian KV serving workload (src/workloads/kv_workload)
 * across the skew x tenants x mesh-size grid and reports per-tenant
 * throughput and p50/p95/p99 transaction latency per class
 * (read/update/insert). The large-mesh rows use the 256- and
 * 1024-tile presets (SystemConfig::makeMeshPreset).
 *
 * `--smoke` runs the CI subset: the 256-tile preset with 2 tenants and
 * skew on, plus the 1024-tile scaling gates -- System construction at
 * the 1024-tile preset must finish inside a generous wall budget with
 * O(1) amortized allocations per registered stat counter and at most
 * 64 MB allocated, and stat dump/aggregation over the full 1024-tile
 * counter population must stay in bounds. The allocation gates pin
 * the fix for ordered-map stat registration, which went super-linear
 * at 1024 tiles, and the first-fill cache storage, without which
 * construction zero-fills about 146 MB of L1/L2 frames; the binary
 * exits non-zero if any gate fails.
 *
 * `--stats-json <path>` exports one row per run with a per-tenant
 * array: {"tenant": N, "commits": ..., "aus_acquires": ...,
 * "log_writes": ..., "read"/"update"/"insert":
 * {"count", "p50", "p95", "p99"}}.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "alloc_counter.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "workloads/kv_workload.hh"

namespace
{

using namespace atomsim;

JsonWriter g_json;
bool g_jsonOpen = false;

struct SweepPoint
{
    std::uint32_t tiles;     //!< 32 (Table I), 256 or 1024 (presets)
    std::uint32_t tenants;   //!< 0 = single-tenant
    double theta;            //!< zipfian skew (0 = uniform)
    std::uint32_t txnsPerCore;
};

SystemConfig
configFor(const SweepPoint &p)
{
    SystemConfig cfg = p.tiles == 32 ? SystemConfig{}
                                     : SystemConfig::makeMeshPreset(p.tiles);
    cfg.numTenants = p.tenants;
    return cfg;
}

KvParams
paramsFor(const SweepPoint &p)
{
    KvParams kv;
    kv.numTenants = p.tenants;
    kv.theta = p.theta;
    kv.txnsPerCore = p.txnsPerCore;
    // Keep the per-tenant key population meaningful even when many
    // tenants split the machine.
    kv.keysPerTenant = 1024;
    kv.insertsPerCore = 8;
    return kv;
}

/** One sweep run; prints the row and appends the JSON record. */
void
runPoint(const SweepPoint &p)
{
    const SystemConfig cfg = configFor(p);
    KvWorkload workload(paramsFor(p));

    Runner runner(cfg, workload, p.txnsPerCore);
    runner.setUp();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = runner.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const StatSet &stats = std::as_const(runner.system()).stats();
    std::printf("%5u tiles  %2u tenants  theta %.2f  %8llu txns  "
                "%10llu cycles  %8.1f ms wall\n",
                p.tiles, cfg.tenantSlots(), p.theta,
                (unsigned long long)r.txns, (unsigned long long)r.cycles,
                wall_ms);
    for (std::uint32_t t = 0; t < cfg.tenantSlots(); ++t) {
        const std::string g = "tenant" + std::to_string(t);
        std::printf(
            "    tenant %u: %llu commits  read p50/p95/p99 = "
            "%llu/%llu/%llu  update = %llu/%llu/%llu\n",
            t, (unsigned long long)stats.value(g, "commits"),
            (unsigned long long)runner.latency(t, 0).percentile(0.50),
            (unsigned long long)runner.latency(t, 0).percentile(0.95),
            (unsigned long long)runner.latency(t, 0).percentile(0.99),
            (unsigned long long)runner.latency(t, 1).percentile(0.50),
            (unsigned long long)runner.latency(t, 1).percentile(0.95),
            (unsigned long long)runner.latency(t, 1).percentile(0.99));
    }

    if (!g_jsonOpen)
        return;
    g_json.beginObject();
    g_json.kv("tiles", p.tiles);
    g_json.kv("tenants", cfg.tenantSlots());
    g_json.kv("theta", p.theta);
    g_json.kv("txns_per_core", p.txnsPerCore);
    g_json.kv("txns", r.txns);
    g_json.kv("cycles", std::uint64_t(r.cycles));
    g_json.kv("txn_per_sec", r.txnPerSec);
    g_json.kv("wall_ms", wall_ms);
    g_json.key("per_tenant");
    g_json.beginArray();
    for (std::uint32_t t = 0; t < cfg.tenantSlots(); ++t) {
        const std::string g = "tenant" + std::to_string(t);
        g_json.beginObject();
        g_json.kv("tenant", t);
        g_json.kv("commits", stats.value(g, "commits"));
        g_json.kv("aus_acquires", stats.value(g, "aus_acquires"));
        g_json.kv("log_writes", stats.value(g, "log_writes"));
        for (std::uint16_t cls = 0; cls < KvWorkload::kNumClasses; ++cls)
            writeLatencyObject(g_json, KvWorkload::className(cls),
                               runner.latency(t, cls));
        g_json.endObject();
    }
    g_json.endArray();
    g_json.endObject();
}

/**
 * 1024-tile scaling gates: construction wall time, amortized
 * allocations per registered counter, construction bytes, and stat
 * dump/aggregation time over the full counter population. Budgets are
 * deliberately generous (CI machines vary); the pre-fix super-linear
 * structures blew them by orders of magnitude.
 */
bool
scalingGates()
{
    std::printf("\n-- 1024-tile scaling gates --\n");
    bool ok = true;

    const SystemConfig cfg = SystemConfig::makeMeshPreset(1024);
    const std::uint64_t a0 = bench::allocCount();
    const std::uint64_t b0 = bench::allocBytes();
    const auto t0 = std::chrono::steady_clock::now();
    System sys(cfg, Addr(512) * 1024 * 1024);
    const auto t1 = std::chrono::steady_clock::now();
    const double build_s = std::chrono::duration<double>(t1 - t0).count();
    const std::uint64_t build_allocs = bench::allocCount() - a0;
    const double build_mb = double(bench::allocBytes() - b0) / (1 << 20);

    const auto dump = std::as_const(sys).stats().dump();
    const std::uint64_t counters = dump.size();
    const auto t2 = std::chrono::steady_clock::now();
    const double dump_s = std::chrono::duration<double>(t2 - t1).count();

    // Aggregation over the full population (what RunResult::collect
    // does a dozen times per run).
    const std::uint64_t live =
        std::as_const(sys).stats().sum("dir", "ctrl_blocks_live");
    (void)live;
    const auto t3 = std::chrono::steady_clock::now();
    const double sum_s = std::chrono::duration<double>(t3 - t2).count();

    std::printf("construction: %.2f s, %llu allocs, %.1f MB, %llu "
                "counters (%.1f allocs/counter)\n",
                build_s, (unsigned long long)build_allocs, build_mb,
                (unsigned long long)counters,
                double(build_allocs) / double(counters));
    std::printf("stat dump: %.3f s; prefix aggregation: %.3f s\n",
                dump_s, sum_s);

    if (build_s > 30.0) {
        std::printf("!! 1024-tile construction took %.1f s (> 30 s "
                    "budget)\n", build_s);
        ok = false;
    }
    // The machine itself allocates per component; registration must
    // not add more than a constant number of allocations per counter
    // on top (the ordered map's rebalancing node churn plus per-node
    // key copies pushed this way up at this population).
    if (counters > 0 && build_allocs / counters > 512) {
        std::printf("!! %.0f allocations per registered counter\n",
                    double(build_allocs) / double(counters));
        ok = false;
    }
    // Cache and DRAM-cache sets are allocated at their first fill, so
    // a fresh machine holds only their per-set pointer tables.
    if (build_mb > 64.0) {
        std::printf("!! 1024-tile construction allocated %.1f MB (> 64 "
                    "MB budget)\n", build_mb);
        ok = false;
    }
    if (dump_s > 5.0 || sum_s > 5.0) {
        std::printf("!! stat dump/aggregation over %llu counters too "
                    "slow (%.2f s / %.2f s)\n",
                    (unsigned long long)counters, dump_s, sum_s);
        ok = false;
    }
    std::printf("scaling gates: %s\n", ok ? "OK" : "FAIL");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    std::printf("serving_sweep: zipfian multi-tenant KV serving%s\n",
                smoke ? " (smoke subset)" : "");

    const std::string json_path = statsJsonPathFromArgs(argc, argv);
    g_jsonOpen = !json_path.empty();
    if (g_jsonOpen) {
        g_json.beginObject();
        g_json.kv("bench", "serving_sweep");
        g_json.kv("smoke", smoke);
        g_json.key("rows");
        g_json.beginArray();
    }

    if (smoke) {
        // CI subset: the 256-tile preset, 2 tenants, YCSB skew.
        runPoint({256, 2, 0.99, 2});
    } else {
        // Skew x tenants on the Table-I machine (cheap rows first).
        for (double theta : {0.0, 0.99})
            for (std::uint32_t tenants : {0u, 4u})
                runPoint({32, tenants, theta, 8});
        // Large-mesh presets: skewed multi-tenant serving.
        runPoint({256, 2, 0.99, 2});
        runPoint({256, 8, 0.99, 2});
        runPoint({1024, 8, 0.99, 1});
    }

    if (g_jsonOpen)
        g_json.endArray();

    const bool gates_ok = scalingGates();

    if (g_jsonOpen) {
        g_json.kv("scaling_gates_ok", gates_ok);
        g_json.endObject();
        if (!g_json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }
    return gates_ok ? 0 : 1;
}
