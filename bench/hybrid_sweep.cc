/**
 * @file
 * Hybrid DRAM/NVM sweep (plain chrono; always builds, like
 * bench/kernel_events.cc). Exercises the memory subsystem behind
 * the controllers across its design points and gates the properties
 * the hybrid tier promises:
 *
 *  1. latency: a DRAM-cache read hit must complete in fewer cycles
 *     than a flat-NVM read (gated, directed bare-controller probe);
 *  2. allocation: the DRAM hit path (read hits + absorbed writeback
 *     hits) performs zero steady-state heap allocations, proven with
 *     an operator-new counter as in the other benches (gated);
 *  3. capacity: the DRAM-cache hit rate on TPC-C is monotone
 *     non-decreasing in dramCacheMBPerMc (gated);
 *  4. placement: throughput / hit-rate / log-traffic rows across
 *     {nvmOnly, memoryMode, appDirect(log-direct),
 *     appDirect(data-direct)} on TPC-C and the hash microbenchmark
 *     (reported).
 *
 * `--smoke` runs the gated sections 1 and 2 only (what CI runs).
 *
 * `--stats-json <path>` exports every row machine-readably
 * (harness/report.hh JsonWriter) instead of ad-hoc stdout scraping.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "designs/design.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "mem/memory_controller.hh"
#include "workloads/hash_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

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

void
jsonRowBegin(const char *section)
{
    if (!g_jsonOpen)
        return;
    g_json.beginObject();
    g_json.kv("section", section);
}

void
jsonRowEnd()
{
    if (g_jsonOpen)
        g_json.endObject();
}

/** One hybrid design point. */
struct Mode
{
    const char *name;
    HybridMode mode;
    AppDirectRegion region;
};

constexpr Mode kModes[] = {
    {"nvmOnly", HybridMode::NvmOnly, AppDirectRegion::LogRegion},
    {"memoryMode", HybridMode::MemoryMode, AppDirectRegion::LogRegion},
    {"appDirect/log-direct", HybridMode::AppDirect,
     AppDirectRegion::LogRegion},
    {"appDirect/data-direct", HybridMode::AppDirect,
     AppDirectRegion::DataRegion},
};

// --- Section 1: directed latency probe on a bare controller ---------

bool
latencySection()
{
    std::printf("\n-- DRAM-hit vs NVM read latency (bare controller) "
                "--\n");

    auto read_latency = [](HybridMode mode, bool second_read) {
        SystemConfig cfg;
        cfg.hybridMode = mode;
        cfg.dramCacheMBPerMc = 1;
        EventQueue eq;
        DataImage nvm;
        StatSet stats;
        MemoryController mc(0, eq, cfg, nvm, stats);
        const Addr addr = 0x40000;
        if (second_read) {
            mc.readLine(addr, ReadKind::Demand, [](const Line &) {});
            eq.run();
        }
        const Tick start = eq.now();
        Tick done = 0;
        mc.readLine(addr, ReadKind::Demand,
                    [&](const Line &) { done = eq.now(); });
        eq.run();
        return done - start;
    };

    const Tick nvm_lat = read_latency(HybridMode::NvmOnly, false);
    const Tick miss_lat = read_latency(HybridMode::MemoryMode, false);
    const Tick hit_lat = read_latency(HybridMode::MemoryMode, true);

    std::printf("nvm read: %llu cycles, dram miss: %llu, dram hit: "
                "%llu\n",
                (unsigned long long)nvm_lat,
                (unsigned long long)miss_lat,
                (unsigned long long)hit_lat);
    jsonRowBegin("latency");
    if (g_jsonOpen) {
        g_json.kv("nvm_read_cycles", std::uint64_t(nvm_lat));
        g_json.kv("dram_miss_cycles", std::uint64_t(miss_lat));
        g_json.kv("dram_hit_cycles", std::uint64_t(hit_lat));
    }
    jsonRowEnd();

    const bool ok = hit_lat < nvm_lat;
    std::printf("DRAM-hit < NVM-read gate: %s\n", ok ? "OK" : "FAIL");
    return ok;
}

// --- Section 2: zero steady-state allocations on the hit path -------

bool
allocSection()
{
    std::printf("\n-- steady-state allocations on the DRAM hit path "
                "--\n");
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::MemoryMode;
    cfg.dramCacheMBPerMc = 1;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    MemoryController mc(0, eq, cfg, nvm, stats);

    constexpr int kLines = 16;
    Line data{};
    auto batch = [&](int rounds) {
        for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < kLines; ++i) {
                const Addr addr = 0x40000 + Addr(i) * kLineBytes;
                data[0] = std::uint8_t(r + i);
                mc.writeLine(addr, data, WriteKind::DataWb, {});
                mc.readLine(addr, ReadKind::Demand,
                            [](const Line &) {});
            }
            eq.run();
        }
    };

    // Warm up: demand-fill the lines and let every pool (requests,
    // DRAM ops, device queue, event one-shots) reach its high-water
    // mark.
    batch(64);

    const std::uint64_t before = g_allocCount;
    batch(1000);
    const std::uint64_t allocs = g_allocCount - before;

    std::printf("allocs across %u DRAM-hit reads + absorbed writes: "
                "%llu\n",
                1000u * kLines * 2, (unsigned long long)allocs);
    jsonRowBegin("alloc");
    if (g_jsonOpen) {
        g_json.kv("hit_path_allocs", allocs);
        // Raw controller counters of the probe run (dram_hits,
        // row_hits, ...) for downstream tooling.
        g_json.statsObject("mc_stats", stats);
    }
    jsonRowEnd();
    const bool ok = allocs == 0;
    std::printf("zero-allocation gate: %s\n", ok ? "OK" : "FAIL");
    return ok;
}

// --- Workload runs ---------------------------------------------------

struct SweepRun
{
    RunResult result;
    double hitRate = 0;
    double wallMs = 0;
};

enum class Load
{
    Hash,
    Tpcc,
    TpccBig,  //!< capacity-pressure scale for the hit-rate curve
};

SweepRun
runOne(Load load, const Mode &mode, std::uint32_t dram_mb,
       std::uint32_t txns_per_core)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l2Tiles = 8;
    cfg.meshRows = 2;
    cfg.ausPerMc = 8;
    cfg.hybridMode = mode.mode;
    cfg.appDirectRegion = mode.region;
    cfg.dramCacheMBPerMc = dram_mb;
    // Small L2 slices so the working set streams through them: the
    // resulting evictions + re-fetches are exactly the traffic a DRAM
    // tier exists to absorb (with the Table-I 32 MB L2, these scaled
    // runs would never re-read a line from the controllers and every
    // mode would measure identical).
    cfg.l2TileBytes = 64 * 1024;
    cfg.l2Assoc = 4;

    std::unique_ptr<Workload> workload;
    Addr data_bytes = Addr(128) * 1024 * 1024;
    switch (load) {
      case Load::Hash: {
        cfg.design = DesignKind::AtomOpt;
        MicroParams params;
        params.entryBytes = 512;
        params.initialItems = 512;
        params.txnsPerCore = txns_per_core;
        workload = std::make_unique<HashWorkload>(params);
        break;
      }
      case Load::Tpcc:
      case Load::TpccBig: {
        cfg.numCores = 4;
        cfg.l2Tiles = 4;
        cfg.ausPerMc = 4;
        cfg.design = DesignKind::Atom;
        tpcc::ScaleParams scale;
        if (load == Load::TpccBig) {
            // Enough rows that the controllers' re-read set outgrows
            // the smallest swept DRAM capacity: the hit-rate curve
            // must actually bend, not just hold a tie.
            scale.customersPerDistrict = 256;
            scale.items = 16384;
        } else {
            scale.customersPerDistrict = 64;
            scale.items = 2048;
        }
        workload = std::make_unique<TpccWorkload>(scale);
        break;
      }
    }

    Runner runner(cfg, *workload, txns_per_core, data_bytes);
    runner.setUp();
    const auto t0 = std::chrono::steady_clock::now();
    SweepRun r;
    r.result = runner.run();
    const auto t1 = std::chrono::steady_clock::now();
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0)
                   .count();
    const std::uint64_t probes = r.result.dramHits +
                                 r.result.dramMisses;
    r.hitRate = probes ? double(r.result.dramHits) / double(probes)
                       : 0.0;
    return r;
}

// --- Section 3: hit rate vs capacity on TPC-C (gated monotone) ------

bool
capacitySection()
{
    std::printf("\n-- TPC-C hit rate vs DRAM capacity (memoryMode) "
                "--\n");
    ReportTable table({"dram MB/MC", "dram hits", "dram misses",
                       "hit rate", "wb evictions", "txn/s"});
    bool ok = true;
    double prev_rate = -1.0;
    const Mode &mm = kModes[1];
    for (std::uint32_t mb : {1u, 2u, 4u, 8u}) {
        const SweepRun r = runOne(Load::TpccBig, mm, mb, 96);
        table.addRow({std::to_string(mb),
                      std::to_string(r.result.dramHits),
                      std::to_string(r.result.dramMisses),
                      ReportTable::num(100.0 * r.hitRate, 2) + "%",
                      std::to_string(r.result.dramWbEvictions),
                      ReportTable::num(r.result.txnPerSec, 0)});
        jsonRowBegin("capacity");
        if (g_jsonOpen) {
            g_json.kv("workload", "tpcc");
            g_json.kv("dram_mb_per_mc", mb);
            g_json.kv("dram_hits", r.result.dramHits);
            g_json.kv("dram_misses", r.result.dramMisses);
            g_json.kv("hit_rate", r.hitRate);
            g_json.kv("wb_evictions", r.result.dramWbEvictions);
            g_json.kv("txn_per_sec", r.result.txnPerSec);
        }
        jsonRowEnd();
        if (r.hitRate + 1e-9 < prev_rate) {
            std::printf("!! hit rate decreased at %u MB\n", mb);
            ok = false;
        }
        prev_rate = r.hitRate;
    }
    table.print();
    std::printf("monotone hit-rate-vs-capacity gate: %s\n",
                ok ? "OK" : "FAIL");
    return ok;
}

// --- Section 4: placement / mode sweep (reported) --------------------

void
placementSection(Load load, const char *load_name,
                 std::uint32_t txns_per_core)
{
    std::printf("\n-- %s across hybrid modes --\n", load_name);
    ReportTable table({"mode", "log placement", "txn/s", "hit rate",
                       "nvm data wr", "nvm log wr", "wb evictions"});
    for (const Mode &mode : kModes) {
        const SweepRun r = runOne(load, mode, 8, txns_per_core);
        SystemConfig label_cfg;
        label_cfg.hybridMode = mode.mode;
        label_cfg.appDirectRegion = mode.region;
        table.addRow({mode.name, logPlacementName(label_cfg),
                      ReportTable::num(r.result.txnPerSec, 0),
                      ReportTable::num(100.0 * r.hitRate, 2) + "%",
                      std::to_string(r.result.memDataWrites),
                      std::to_string(r.result.memLogWrites),
                      std::to_string(r.result.dramWbEvictions)});
        jsonRowBegin("placement");
        if (g_jsonOpen) {
            g_json.kv("workload", load_name);
            g_json.kv("mode", mode.name);
            g_json.kv("log_placement", logPlacementName(label_cfg));
            g_json.kv("txn_per_sec", r.result.txnPerSec);
            g_json.kv("hit_rate", r.hitRate);
            g_json.kv("dram_hits", r.result.dramHits);
            g_json.kv("dram_misses", r.result.dramMisses);
            g_json.kv("row_hits", r.result.dramRowHits);
            g_json.kv("wb_evictions", r.result.dramWbEvictions);
            g_json.kv("nvm_data_writes", r.result.memDataWrites);
            g_json.kv("nvm_log_writes", r.result.memLogWrites);
        }
        jsonRowEnd();
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    const std::string json_path = statsJsonPathFromArgs(argc, argv);
    g_jsonOpen = !json_path.empty();
    if (g_jsonOpen) {
        g_json.beginObject();
        g_json.kv("bench", "hybrid_sweep");
        g_json.kv("smoke", smoke);
        g_json.key("rows");
        g_json.beginArray();
    }

    std::printf("hybrid_sweep: DRAM/NVM memory subsystem design "
                "points%s\n", smoke ? " (smoke)" : "");

    bool ok = true;
    ok &= latencySection();
    ok &= allocSection();
    if (!smoke) {
        ok &= capacitySection();
        placementSection(Load::Tpcc, "tpcc (4c ATOM)", 16);
        placementSection(Load::Hash, "hash micro (8c ATOM-OPT)", 8);
    }

    if (g_jsonOpen) {
        g_json.endArray();
        g_json.kv("ok", ok);
        g_json.endObject();
        if (!g_json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            ok = false;
        } else {
            std::printf("\nwrote %s\n", json_path.c_str());
        }
    }
    return ok ? 0 : 1;
}
