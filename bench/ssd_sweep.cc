/**
 * @file
 * Flash-tier destage sweep (plain chrono; always builds).
 *
 * Runs the hash microbenchmark with the SSD tier enabled across the
 * durability-policy axis (off / strict / balanced / eventual) and
 * reports destage bandwidth, promotion churn and truncation-wait
 * counts per policy, so the cost of each durability point is visible
 * side by side with the tier-off baseline.
 *
 * `--smoke` runs the CI subset: one workload size across all four
 * policies, plus the component gates -- the SQ/CQ hot path must make
 * zero steady-state heap allocations once the command pool and rings
 * are warm (the rings are fixed-capacity and the nodes pooled, so any
 * allocation is a regression), a flash read must cost more than an
 * NVM read (the tier is only coherent if forwarding is the slow
 * path), and the eventual policy's volatile staging window must stay
 * within its configured bound. The binary exits non-zero if any gate
 * fails.
 *
 * `--stats-json <path>` exports one row per run:
 * {"policy": ..., "txns": ..., "cycles": ..., "destage_pages": ...,
 *  "pages_per_mcycle": ..., ...} plus the gate verdicts.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "mem/ssd_device.hh"
#include "workloads/hash_workload.hh"

namespace
{
std::uint64_t g_allocCount = 0;
}

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using namespace atomsim;

JsonWriter g_json;
bool g_jsonOpen = false;

struct SweepPoint
{
    /** 0 = tier off, else DurabilityPolicy. */
    std::uint32_t durability;
    std::uint32_t initialItems;
    std::uint32_t txnsPerCore;
    std::uint64_t seed;
};

DurabilityPolicy
policyOf(std::uint32_t durability)
{
    return durability == 1   ? DurabilityPolicy::Strict
           : durability == 2 ? DurabilityPolicy::Balanced
                             : DurabilityPolicy::Eventual;
}

const char *
policyLabel(const SweepPoint &p)
{
    return p.durability == 0 ? "off"
                             : durabilityPolicyName(policyOf(p.durability));
}

SystemConfig
configFor(const SweepPoint &p)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::Atom;
    cfg.seed = p.seed;
    if (p.durability != 0) {
        cfg.ssdTier = true;
        cfg.durabilityPolicy = policyOf(p.durability);
        // Destage aggressively (cold immediately at truncation) with
        // short flash latencies, so these small runs drive the whole
        // pipeline including promotion churn on re-access.
        cfg.ssdColdPageWatermark = 0;
        cfg.ssdFlashPagesPerMc = 256;
        cfg.ssdMaxDestageBacklog = 4;
        cfg.ssdReadLatency = 2000;
        cfg.ssdProgramLatency = 5000;
    }
    return cfg;
}

/** One sweep run; prints the row and appends the JSON record. */
void
runPoint(const SweepPoint &p)
{
    const SystemConfig cfg = configFor(p);
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = p.initialItems;
    params.txnsPerCore = p.txnsPerCore;
    params.seed = p.seed;
    HashWorkload workload(params);

    Runner runner(cfg, workload, p.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = runner.run();
    // The last truncations queue destages whose flash programs are
    // still in flight when the final core finishes: drain them so the
    // destage counters describe the whole run.
    EventQueue &eq = runner.system().eventQueue();
    eq.run(eq.now() + 1000 * 1000);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const StatSet &stats = std::as_const(runner.system()).stats();
    const std::uint64_t pages = stats.sum("mc", "destage_pages");
    const std::uint64_t log_pages = stats.sum("mc", "destage_log_pages");
    const std::uint64_t promotions =
        stats.sum("mc", "destage_promotions");
    const std::uint64_t trunc_waits =
        stats.sum("mc", "destage_trunc_waits");
    const double pages_per_mcycle =
        r.cycles > 0 ? double(pages) * 1e6 / double(r.cycles) : 0.0;

    std::printf("%-8s  i%-3u t%-3u  %6llu txns  %9llu cycles  "
                "%5llu pages (%5.1f /Mcyc)  %4llu log  %4llu promo  "
                "%4llu waits  %6.1f ms\n",
                policyLabel(p), p.initialItems, p.txnsPerCore,
                (unsigned long long)r.txns, (unsigned long long)r.cycles,
                (unsigned long long)pages, pages_per_mcycle,
                (unsigned long long)log_pages,
                (unsigned long long)promotions,
                (unsigned long long)trunc_waits, wall_ms);

    if (!g_jsonOpen)
        return;
    g_json.beginObject();
    g_json.kv("policy", policyLabel(p));
    g_json.kv("initial_items", p.initialItems);
    g_json.kv("txns_per_core", p.txnsPerCore);
    g_json.kv("seed", p.seed);
    g_json.kv("txns", r.txns);
    g_json.kv("cycles", std::uint64_t(r.cycles));
    g_json.kv("wall_ms", wall_ms);
    g_json.kv("destage_pages", pages);
    g_json.kv("destage_log_pages", log_pages);
    g_json.kv("destage_promotions", promotions);
    g_json.kv("destage_cancelled", stats.sum("mc", "destage_cancelled"));
    g_json.kv("destage_trunc_waits", trunc_waits);
    g_json.kv("destage_stalls", stats.sum("mc", "destage_stalls"));
    g_json.kv("ssd_reads", stats.sum("ssd", "reads"));
    g_json.kv("ssd_programs", stats.sum("ssd", "programs"));
    g_json.kv("staged_acks", stats.sum("design", "staged_acks"));
    g_json.kv("pages_per_mcycle", pages_per_mcycle);
    g_json.endObject();
}

/**
 * SQ/CQ hot-path allocation gate: once the command pool and the event
 * wheel are warm, a submit/doorbell/reap cycle must not touch the
 * heap. The rings are fixed-capacity arrays and the command nodes
 * pooled intrusive objects, so a single steady-state allocation means
 * someone reintroduced a per-command container or a heap-backed
 * callback.
 */
bool
hotPathAllocGate()
{
    SystemConfig cfg;
    cfg.ssdTier = true;
    cfg.ssdChannels = 2;
    cfg.ssdDiesPerChannel = 2;
    cfg.ssdQueueDepth = 8;
    cfg.ssdFlashPagesPerMc = 64;
    cfg.ssdReadLatency = 2000;
    cfg.ssdProgramLatency = 5000;

    EventQueue eq;
    StatSet stats;
    SsdDevice ssd(0, eq, cfg, stats);

    std::uint32_t completions = 0;
    auto batch = [&](std::uint8_t fill) {
        // Fill both queue pairs: writes then reads of the same pages.
        for (std::uint32_t qp = 0; qp < cfg.ssdChannels; ++qp) {
            for (std::uint32_t i = 0; i < cfg.ssdQueueDepth / 2; ++i) {
                SsdDevice::Cmd *w = ssd.acquireCmd();
                w->isWrite = true;
                w->flashPage = qp + cfg.ssdChannels * i;
                w->data.fill(fill);
                w->done = [&completions](SsdDevice::Cmd &) {
                    ++completions;
                };
                if (!ssd.submit(qp, w))
                    ssd.releaseCmd(w);
                SsdDevice::Cmd *r = ssd.acquireCmd();
                r->isWrite = false;
                r->flashPage = qp + cfg.ssdChannels * i;
                r->done = [&completions](SsdDevice::Cmd &) {
                    ++completions;
                };
                if (!ssd.submit(qp, r))
                    ssd.releaseCmd(r);
            }
            ssd.ringDoorbell(qp);
        }
        eq.run();
    };

    // Warm-up: grows the pool to steady state and touches every event
    // wheel bucket the poll loop will ever use.
    batch(0x11);
    batch(0x22);

    const std::uint64_t a0 = g_allocCount;
    const std::uint32_t before = completions;
    for (std::uint32_t round = 0; round < 8; ++round)
        batch(std::uint8_t(0x30 + round));
    const std::uint64_t steady_allocs = g_allocCount - a0;

    std::printf("hot path: %u completions, %llu steady-state allocs\n",
                completions - before,
                (unsigned long long)steady_allocs);
    if (completions == before) {
        std::printf("!! hot-path gate ran no commands\n");
        return false;
    }
    if (steady_allocs != 0) {
        std::printf("!! SQ/CQ hot path allocated %llu times in steady "
                    "state (expected 0)\n",
                    (unsigned long long)steady_allocs);
        return false;
    }
    return true;
}

/**
 * Latency-ordering gate: a flash read (sense + bus transfer) must
 * cost more than an NVM read at the default timing parameters --
 * forwarding a destaged page through the SSD read path only models a
 * tiering cost if the tier it forwards to is actually slower.
 */
bool
latencyOrderGate()
{
    SystemConfig cfg;
    cfg.ssdTier = true;

    EventQueue eq;
    StatSet stats;
    SsdDevice ssd(0, eq, cfg, stats);

    SsdDevice::Cmd *w = ssd.acquireCmd();
    w->isWrite = true;
    w->flashPage = 3;
    w->data.fill(0x5C);
    if (!ssd.submit(ssd.qpOf(3), w))
        return false;
    ssd.ringDoorbell(ssd.qpOf(3));
    eq.run();

    const Tick start = eq.now();
    Tick done_at = 0;
    SsdDevice::Cmd *r = ssd.acquireCmd();
    r->isWrite = false;
    r->flashPage = 3;
    r->done = [&eq, &done_at](SsdDevice::Cmd &) { done_at = eq.now(); };
    if (!ssd.submit(ssd.qpOf(3), r))
        return false;
    ssd.ringDoorbell(ssd.qpOf(3));
    eq.run();

    const Tick flash_read = done_at - start;
    std::printf("flash read: %llu cycles; NVM read: %llu cycles\n",
                (unsigned long long)flash_read,
                (unsigned long long)cfg.nvmReadLatency);
    if (done_at == 0 || flash_read <= Tick(cfg.nvmReadLatency)) {
        std::printf("!! flash read (%llu) not slower than NVM read "
                    "(%llu)\n",
                    (unsigned long long)flash_read,
                    (unsigned long long)cfg.nvmReadLatency);
        return false;
    }
    return true;
}

/**
 * Staging-window gate: under the eventual policy some commits ack
 * from the volatile staging window, and its occupancy never exceeds
 * the configured bound (that bound is the policy's whole loss
 * guarantee -- see README, "Flash tier & durability policies").
 */
bool
stagingWindowGate()
{
    const SweepPoint p{3, 32, 12, 7};
    const SystemConfig cfg = configFor(p);
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = p.initialItems;
    params.txnsPerCore = p.txnsPerCore;
    params.seed = p.seed;
    HashWorkload workload(params);

    Runner runner(cfg, workload, p.txnsPerCore, Addr(64) * 1024 * 1024);
    runner.setUp();
    runner.run();

    const std::uint64_t acks = std::as_const(runner.system())
                                   .stats()
                                   .sum("design", "staged_acks");
    const std::uint32_t peak =
        runner.system().designContext().stagedPeak();
    std::printf("staging window: %llu staged acks, peak %u / bound "
                "%u\n",
                (unsigned long long)acks, peak, cfg.ssdStagingWindow);
    if (acks == 0) {
        std::printf("!! eventual policy staged no commits\n");
        return false;
    }
    if (peak > cfg.ssdStagingWindow) {
        std::printf("!! staging occupancy %u exceeded the %u bound\n",
                    peak, cfg.ssdStagingWindow);
        return false;
    }
    return true;
}

bool
componentGates()
{
    std::printf("\n-- flash-tier component gates --\n");
    bool ok = true;
    ok = hotPathAllocGate() && ok;
    ok = latencyOrderGate() && ok;
    ok = stagingWindowGate() && ok;
    std::printf("component gates: %s\n", ok ? "OK" : "FAIL");
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

    std::printf("ssd_sweep: destage bandwidth vs durability policy%s\n",
                smoke ? " (smoke subset)" : "");

    const std::string json_path = statsJsonPathFromArgs(argc, argv);
    g_jsonOpen = !json_path.empty();
    if (g_jsonOpen) {
        g_json.beginObject();
        g_json.kv("bench", "ssd_sweep");
        g_json.kv("smoke", smoke);
        g_json.key("rows");
        g_json.beginArray();
    }

    // Tier-off baseline first, then every policy at the same size.
    for (std::uint32_t d : {0u, 1u, 2u, 3u})
        runPoint({d, 32, 12, 9});
    if (!smoke) {
        // Larger working set: more cold pages per truncation, so the
        // destage path runs at a sustained backlog.
        for (std::uint32_t d : {1u, 2u, 3u})
            runPoint({d, 64, 48, 9});
    }

    if (g_jsonOpen)
        g_json.endArray();

    const bool gates_ok = componentGates();

    if (g_jsonOpen) {
        g_json.kv("component_gates_ok", gates_ok);
        g_json.endObject();
        if (!g_json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }
    return gates_ok ? 0 : 1;
}
