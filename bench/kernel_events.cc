/**
 * @file
 * Hot-path microbenchmarks: the DES kernel, the mesh delivery path,
 * the L1/L2 miss path and the store path.
 *
 * Kernel section: the event queue's two scheduling paths on one
 * workload that mirrors the simulator's steady state: a population of
 * actors, each rescheduling itself with a deterministic mix of short
 * delays (cache/network latencies), mid delays (NVM completions) and
 * occasional far-future delays (the 5000-cycle OS interrupt), plus a
 * one-shot "continuation" posted per firing (the miss-fill / delivery
 * pattern). Events/sec is reported for both:
 *
 *   pooled    one-shot post() path (pooled FuncEvents, calendar queue)
 *   intrusive member TickEvents (zero allocation, calendar queue)
 *
 * Mesh section: typed intrusive packets, each its own delivery event,
 * ping-ponging across the Table-I 4x8 mesh and the 1024-tile
 * preset's 32x32 mesh, where the pairs sit at opposite corners and
 * edges so every route runs 32-62 hops and both legs walk in both
 * directions. The binary links bench/alloc_counter.cc, which counts
 * every operator new, proving the packet path performs ZERO
 * steady-state heap allocations; messages/sec and mean hops per
 * message are reported.
 *
 * Miss-path section: a real (small) System driven through L1
 * load/store miss churn -- ownership ping-pong between two cores, so
 * every access walks MSHR allocate/waiter/fill, the directory, and
 * 3-hop forwards. Steady-state allocations must be zero; misses/sec is
 * reported, along with the calendar wheel's spill ratio.
 *
 * Store-path section: the same System's store queues, each pushed more
 * stores per round than it has entries while two cores ping-pong line
 * ownership -- SQ-full waiters, ring wrap, MSHRs and the directory's
 * busy-line table all run. Steady-state allocations must be zero.
 *
 * Allocation section: heap allocations per committed transaction
 * while the btree micro-benchmark runs on the Table-I machine (small
 * dataset) under BASE, ATOM-OPT and REDO -- what is left of the
 * per-transaction allocations in the timing model. Reported, not
 * gated. Then the heap bytes and calls of the durable snapshot
 * (System::makeDurableSnapshot) after sps's Table-I init with 4 KB
 * entries, a 64 MiB image: the snapshot shares the image's pages, so
 * it must allocate at most 1/32 of the image's bytes.
 *
 * Exit status is 2 when the two kernels fire different event counts,
 * and 1 when a zero-allocation check fails, the store path never
 * fills an SQ or the snapshot allocates above its bound.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "bench_common.hh"
#include "harness/system.hh"
#include "net/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace
{

using atomsim::Cycles;
using atomsim::EventQueue;
using atomsim::TickEvent;
using atomsim::bench::allocBytes;
using atomsim::bench::allocCount;

// --- deterministic workload shape -------------------------------------

/** Delay of actor @p a's @p n-th firing: mostly short, sometimes the
 * 5000-cycle far-future path. Identical across kernels. */
inline Cycles
actorDelay(std::uint32_t a, std::uint64_t n)
{
    const std::uint64_t x = (a * 2654435761u) ^ (n * 0x9e3779b97f4a7c15ull);
    if ((x & 0xff) == 0)
        return 5000;  // ~0.4%: OS-interrupt-like spill
    return 1 + (x % 400);  // 1..400: core/cache/NVM latencies
}

constexpr std::uint32_t kActors = 256;

double g_pooledSpillRatio = 0.0;
std::uint64_t g_pooledSpills = 0;

double
runPooled(std::uint64_t budget, std::uint64_t &fired_out)
{
    EventQueue q;
    std::uint64_t fired = 0;
    std::vector<std::uint64_t> n(kActors, 0);

    std::function<void(std::uint32_t)> fire = [&](std::uint32_t a) {
        ++fired;
        q.postIn(1, [&fired] { ++fired; });
        if (fired < budget)
            q.postIn(actorDelay(a, n[a]++), [&fire, a] { fire(a); });
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t a = 0; a < kActors; ++a)
        q.postIn(actorDelay(a, n[a]++), [&fire, a] { fire(a); });
    q.run();
    const auto t1 = std::chrono::steady_clock::now();
    fired_out = fired;
    g_pooledSpillRatio = q.spillRatio();
    g_pooledSpills = q.spillInserts();
    return std::chrono::duration<double>(t1 - t0).count();
}

double
runIntrusive(std::uint64_t budget, std::uint64_t &fired_out)
{
    EventQueue q;
    std::uint64_t fired = 0;
    std::vector<std::uint64_t> n(kActors, 0);

    std::vector<std::unique_ptr<TickEvent>> actors;
    std::vector<std::unique_ptr<TickEvent>> continuations;
    actors.reserve(kActors);
    continuations.reserve(kActors);
    // A member event's callback holds its owner plus an index, so each
    // actor calls one shared body through a reference.
    const auto fire = [&](std::uint32_t a) {
        ++fired;
        TickEvent &cont = *continuations[a];
        if (!cont.scheduled())
            q.scheduleIn(cont, 1);
        if (fired < budget)
            q.scheduleIn(*actors[a], actorDelay(a, n[a]++));
    };
    for (std::uint32_t a = 0; a < kActors; ++a) {
        continuations.push_back(std::make_unique<TickEvent>(
            [&fired] { ++fired; }));
        actors.push_back(
            std::make_unique<TickEvent>([&fire, a] { fire(a); }));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t a = 0; a < kActors; ++a)
        q.scheduleIn(*actors[a], actorDelay(a, n[a]++));
    q.run();
    const auto t1 = std::chrono::steady_clock::now();
    fired_out = fired;
    return std::chrono::duration<double>(t1 - t0).count();
}

// --- mesh delivery -----------------------------------------------------

/** (node, node) pairs, each ping-ponging one packet stream. */
using NodePairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/** Table-I 4x8 mesh: node i talks to node 31 - i. */
NodePairs
tableOnePairs()
{
    NodePairs pairs;
    for (std::uint32_t i = 0; i < 8; ++i)
        pairs.emplace_back(i, 31 - i);
    return pairs;
}

/** 32x32 mesh: each node talks to its mirror image through the
 * centre -- top edge to bottom edge, left edge to right edge, and the
 * two diagonals corner to corner -- so routes run 32 to 62 hops. */
NodePairs
longRoutePairs()
{
    constexpr std::uint32_t kSide = 32;
    const auto node = [](std::uint32_t row, std::uint32_t col) {
        return row * kSide + col;
    };
    NodePairs pairs;
    for (std::uint32_t k : {0u, 8u, 16u, 31u})  // top -> bottom
        pairs.emplace_back(node(0, k), node(kSide - 1, kSide - 1 - k));
    for (std::uint32_t k : {4u, 12u, 20u, 28u})  // left -> right
        pairs.emplace_back(node(k, 0), node(kSide - 1 - k, kSide - 1));
    return pairs;
}

/** Typed-packet bounce endpoint (one per mesh node in use). */
struct BounceSink final : public atomsim::MeshSink
{
    void
    meshDeliver(atomsim::Packet &pkt) override
    {
        ++*delivered;
        if (*remaining == 0)
            return;
        --*remaining;
        atomsim::Packet &p = mesh->make(atomsim::MsgType::Data);
        p.receiver = peer;
        p.data = pkt.data;  // carry the line back
        mesh->send(self, peerNode, p);
    }

    atomsim::Mesh *mesh = nullptr;
    BounceSink *peer = nullptr;
    std::uint32_t self = 0;
    std::uint32_t peerNode = 0;
    std::uint64_t *delivered = nullptr;
    std::uint64_t *remaining = nullptr;
};

/**
 * Ping-pong @p budget packets between @p pairs on @p cfg's mesh.
 * Returns the run's seconds; @p steady_allocs gets the heap
 * allocations observed after warmup (must be zero) and @p mean_hops
 * the link hops per delivered message.
 */
double
runPacketMesh(const atomsim::SystemConfig &cfg, const NodePairs &pairs,
              std::uint64_t budget, std::uint64_t &delivered_out,
              std::uint64_t &steady_allocs, double &mean_hops)
{
    EventQueue eq;
    atomsim::StatSet stats;
    atomsim::Mesh mesh(eq, cfg, stats);

    std::uint64_t delivered = 0;
    std::uint64_t remaining = budget;
    const std::uint64_t warmup = budget / 10;

    std::vector<BounceSink> sinks(pairs.size() * 2);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        BounceSink &a = sinks[2 * i];
        BounceSink &b = sinks[2 * i + 1];
        a.mesh = b.mesh = &mesh;
        a.self = b.peerNode = pairs[i].first;
        b.self = a.peerNode = pairs[i].second;
        a.peer = &b;
        b.peer = &a;
        a.delivered = b.delivered = &delivered;
        a.remaining = b.remaining = &remaining;
    }

    std::uint64_t allocs_at_steady = 0;
    bool counting = false;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        --remaining;
        atomsim::Packet &p = mesh.make(atomsim::MsgType::Data);
        p.receiver = &sinks[2 * i + 1];
        mesh.send(sinks[2 * i].self, sinks[2 * i].peerNode, p);
    }
    while (eq.step()) {
        if (!counting && delivered >= warmup) {
            counting = true;
            allocs_at_steady = allocCount();
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    delivered_out = delivered;
    steady_allocs = counting ? allocCount() - allocs_at_steady : 0;
    // flit_hops counts flits * (link hops + the source router hop).
    const double flits = atomsim::msgFlits(atomsim::MsgType::Data);
    mean_hops = delivered
                    ? double(mesh.flitHops()) / (flits * double(delivered)) - 1
                    : 0.0;
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Time one mesh line (after a warm-up pass) and print it; false when
 * the packet path allocated in steady state. */
bool
reportPacketMesh(const char *label, const atomsim::SystemConfig &cfg,
                 const NodePairs &pairs, std::uint64_t budget)
{
    std::uint64_t delivered = 0, allocs = 0;
    double mean_hops = 0.0;
    // Warm-up pass so the timed run starts against a hot allocator.
    runPacketMesh(cfg, pairs, budget / 10, delivered, allocs, mean_hops);
    const double t =
        runPacketMesh(cfg, pairs, budget, delivered, allocs, mean_hops);

    std::printf("  %-38s %8.2f M msgs/s   %5.1f hops/msg   "
                "(%llu steady-state allocs)\n",
                label, double(delivered) / t / 1e6, mean_hops,
                (unsigned long long)allocs);
    if (allocs != 0) {
        std::fprintf(stderr, "\nFAIL: %s allocated %llu times in steady "
                             "state (expected 0)\n",
                     label, (unsigned long long)allocs);
        return false;
    }
    return true;
}

// --- L1/L2 miss path ---------------------------------------------------

/**
 * Drive a real System's L1s through miss churn: two cores ping-pong
 * ownership of a line set, so every store is a GetX/Upgrade with a
 * 3-hop forward and every load is a FwdGetS -- all through the MSHRs,
 * the directory and the mesh. Returns ops/sec; @p steady_allocs gets
 * the heap allocations observed after warmup (must be zero).
 */
double
runMissPath(std::uint64_t rounds, std::uint64_t &ops_out,
            std::uint64_t &steady_allocs, double &spill_ratio)
{
    atomsim::SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = atomsim::DesignKind::NonAtomic;
    atomsim::System sys(cfg, atomsim::Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    constexpr std::uint32_t kLines = 32;
    const atomsim::Addr base = 0x40000;
    std::uint64_t ops = 0;
    const std::uint64_t value = 0xfeedULL;
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&value);

    auto churn = [&](std::uint64_t n) {
        for (std::uint64_t r = 0; r < n; ++r) {
            const atomsim::CoreId writer = r % 2;
            const atomsim::CoreId reader = 1 - writer;
            for (std::uint32_t i = 0; i < kLines; ++i) {
                const atomsim::Addr addr =
                    base + atomsim::Addr(i) * atomsim::kLineBytes;
                bool done = false;
                sys.l1(writer).store(addr, bytes, 8, [&] { done = true; });
                eq.run();
                bool read = false;
                sys.l1(reader).load(addr, [&] { read = true; });
                eq.run();
                ops += 2;
                if (!done || !read)
                    std::abort();
            }
        }
    };

    churn(4);  // warmup: fills, pools, directory control blocks
    const std::uint64_t allocs_before = allocCount();
    const std::uint64_t ops_before = ops;
    const auto t0 = std::chrono::steady_clock::now();
    churn(rounds);
    const auto t1 = std::chrono::steady_clock::now();
    steady_allocs = allocCount() - allocs_before;
    ops_out = ops - ops_before;
    spill_ratio = eq.spillRatio();
    return std::chrono::duration<double>(t1 - t0).count();
}

// --- store path --------------------------------------------------------

/**
 * Drive a real System's store queues: each round, every core pushes
 * more stores than its SQ holds back to back, so the surplus parks as
 * SQ-full waiters and the ring wraps. Cores 0 and 1 store to the same
 * lines, so ownership ping-pongs through the MSHRs and the directory's
 * busy-line table; cores 2 and 3 store to private lines. Returns
 * stores/sec; @p steady_allocs gets the heap allocations observed
 * after warmup (must be zero) and @p full_cycles the SQ-full stall
 * cycles (must be non-zero, or the waiters never ran).
 */
double
runStorePath(std::uint64_t rounds, std::uint64_t &stores_out,
             std::uint64_t &steady_allocs, std::uint64_t &full_cycles)
{
    atomsim::SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = atomsim::DesignKind::NonAtomic;
    atomsim::System sys(cfg, atomsim::Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    constexpr std::uint32_t kLines = 16;
    const std::uint32_t per_round = 2 * cfg.sqEntries + 8;
    std::uint64_t pushed = 0;
    std::uint64_t accepted = 0;

    auto round = [&](std::uint64_t n) {
        for (std::uint64_t r = 0; r < n; ++r) {
            for (atomsim::CoreId c = 0; c < cfg.numCores; ++c) {
                const atomsim::Addr base =
                    0x80000 + atomsim::Addr(c < 2 ? 0 : c) * 0x10000;
                atomsim::StoreQueue &sq = sys.core(c).storeQueue();
                for (std::uint32_t i = 0; i < per_round; ++i) {
                    const atomsim::Addr addr =
                        base + atomsim::Addr(i % kLines) *
                                   atomsim::kLineBytes +
                        8 * (i % 8);
                    const std::uint64_t value = pushed++;
                    sq.push(atomsim::MemOp::store(addr, &value, 8),
                            [&accepted] { ++accepted; });
                }
            }
            eq.run();
        }
    };

    round(4);  // warmup: fills, MSHRs, parked-store pool, line tables
    const std::uint64_t allocs_before = allocCount();
    const std::uint64_t pushed_before = pushed;
    const auto t0 = std::chrono::steady_clock::now();
    round(rounds);
    const auto t1 = std::chrono::steady_clock::now();
    steady_allocs = allocCount() - allocs_before;
    stores_out = pushed - pushed_before;
    if (accepted != pushed)
        std::abort();
    full_cycles = 0;
    for (atomsim::CoreId c = 0; c < cfg.numCores; ++c)
        full_cycles += sys.core(c).storeQueue().fullCycles();
    return std::chrono::duration<double>(t1 - t0).count();
}

// --- allocations per committed transaction ------------------------------

/**
 * Run btree on the Table-I machine (small dataset) under @p design and
 * return the heap allocations run() made per committed transaction;
 * @p txns gets the committed transactions.
 */
double
allocsPerTxn(atomsim::DesignKind design, std::uint64_t &txns)
{
    atomsim::SystemConfig cfg;
    cfg.design = design;
    const atomsim::MicroParams params = atomsim::bench::microParams(false);
    auto workload = atomsim::bench::makeMicro("btree", params);
    atomsim::Runner runner(cfg, *workload, params.txnsPerCore);
    runner.setUp();
    const std::uint64_t before = allocCount();
    const atomsim::RunResult result =
        runner.run(atomsim::Tick(200000) * 1000 * 1000);
    const std::uint64_t allocs = allocCount() - before;
    txns = result.txns;
    return txns ? double(allocs) / double(txns) : 0.0;
}

/**
 * Initialize sps with 4 KB entries on the Table-I machine, as
 * Runner::setUp does, and return the heap bytes the durable snapshot
 * then allocates; @p calls gets its allocations and @p image_bytes the
 * snapshotted image's size.
 */
std::uint64_t
snapshotBytes(std::uint64_t &calls, std::uint64_t &image_bytes)
{
    const atomsim::SystemConfig cfg;
    const atomsim::MicroParams params = atomsim::bench::microParams(true);
    auto workload = atomsim::bench::makeMicro("sps", params);
    atomsim::Runner runner(cfg, *workload, params.txnsPerCore);
    atomsim::System &sys = runner.system();
    atomsim::DirectAccessor direct(sys.archMem());
    workload->init(direct, runner.heap(), cfg.numCores);
    image_bytes = sys.archMem().pagesAllocated() * atomsim::kPageBytes;

    const std::uint64_t calls_before = allocCount();
    const std::uint64_t bytes_before = allocBytes();
    sys.makeDurableSnapshot();
    calls = allocCount() - calls_before;
    return allocBytes() - bytes_before;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t budget = 5'000'000;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--events") && i + 1 < argc)
            budget = std::strtoull(argv[++i], nullptr, 10);
    }

    std::printf("DES kernel microbenchmark: %llu scheduled events, "
                "%u actors\n\n",
                (unsigned long long)budget, kActors);

    // Warm-up pass so both kernels run against a hot allocator.
    std::uint64_t fired = 0;
    runPooled(budget / 10, fired);
    runIntrusive(budget / 10, fired);

    std::uint64_t fired_pooled = 0, fired_intr = 0;
    const double t_pooled = runPooled(budget, fired_pooled);
    const double t_intr = runIntrusive(budget, fired_intr);

    if (fired_pooled != fired_intr) {
        std::fprintf(stderr,
                     "event-count mismatch: pooled=%llu intrusive=%llu\n",
                     (unsigned long long)fired_pooled,
                     (unsigned long long)fired_intr);
        return 2;
    }

    std::printf("  %-38s %8.1f M events/s\n",
                "pooled one-shots (calendar queue)",
                double(fired_pooled) / t_pooled / 1e6);
    std::printf("  %-38s %8.1f M events/s\n",
                "intrusive TickEvents (calendar queue)",
                double(fired_intr) / t_intr / 1e6);
    std::printf("  calendar wheel spill ratio: %.6f (%llu of the "
                "schedules crossed the %u-tick horizon)\n",
                g_pooledSpillRatio, (unsigned long long)g_pooledSpills,
                EventQueue::kWheelBuckets);

    // --- mesh delivery path -------------------------------------------

    const std::uint64_t mesh_budget = budget / 5;
    const NodePairs table_one = tableOnePairs();
    const NodePairs long_routes = longRoutePairs();
    std::printf("\nmesh delivery: %llu messages per line, %zu "
                "ping-pong sinks on the 4x8 mesh, %zu on the 32x32 "
                "mesh\n\n",
                (unsigned long long)mesh_budget, table_one.size() * 2,
                long_routes.size() * 2);

    if (!reportPacketMesh("packet mesh, 4x8 (Table I)",
                          atomsim::SystemConfig{}, table_one,
                          mesh_budget) ||
        !reportPacketMesh("packet mesh, 32x32 (1024 tiles)",
                          atomsim::SystemConfig::makeMeshPreset(1024),
                          long_routes, mesh_budget))
        return 1;

    // --- L1/L2 miss path ----------------------------------------------

    std::uint64_t miss_ops = 0, miss_allocs = 0;
    double spill_ratio = 0.0;
    const std::uint64_t miss_rounds = 200;
    const double t_miss =
        runMissPath(miss_rounds, miss_ops, miss_allocs, spill_ratio);

    std::printf("\nmiss path: ownership ping-pong through MSHRs + "
                "directory + 3-hop forwards\n\n");
    std::printf("  %-38s %8.2f M ops/s    (%llu steady-state allocs)\n",
                "L1 miss churn (4-core system)",
                double(miss_ops) / t_miss / 1e6,
                (unsigned long long)miss_allocs);
    std::printf("  calendar wheel spill ratio: %.6f "
                "(%s far-future schedules)\n",
                spill_ratio,
                spill_ratio == 0.0 ? "no" : "some");

    if (miss_allocs != 0) {
        std::fprintf(stderr, "\nFAIL: miss path allocated %llu times in "
                             "steady state (expected 0)\n",
                     (unsigned long long)miss_allocs);
        return 1;
    }

    // --- store path ---------------------------------------------------

    std::uint64_t stores = 0, store_allocs = 0, full_cycles = 0;
    const double t_store =
        runStorePath(100, stores, store_allocs, full_cycles);

    std::printf("\nstore path: SQ rings overfilled each round, two cores "
                "ping-ponging line ownership\n\n");
    std::printf("  %-38s %8.2f M stores/s (%llu steady-state allocs)\n",
                "StoreQueue::push (4-core system)",
                double(stores) / t_store / 1e6,
                (unsigned long long)store_allocs);
    std::printf("  SQ-full stall cycles: %llu\n",
                (unsigned long long)full_cycles);

    if (store_allocs != 0) {
        std::fprintf(stderr, "\nFAIL: store path allocated %llu times in "
                             "steady state (expected 0)\n",
                     (unsigned long long)store_allocs);
        return 1;
    }
    if (full_cycles == 0) {
        std::fprintf(stderr, "\nFAIL: store path never filled an SQ\n");
        return 1;
    }

    // --- allocations per committed transaction ------------------------

    std::printf("\nallocations per committed transaction: btree, Table-I "
                "machine, small dataset\n\n");
    for (const atomsim::DesignKind design :
         {atomsim::DesignKind::Base, atomsim::DesignKind::AtomOpt,
          atomsim::DesignKind::Redo}) {
        std::uint64_t txns = 0;
        const double per_txn = allocsPerTxn(design, txns);
        std::printf("  %-38s %8.2f allocs/txn (%llu txns)\n",
                    atomsim::designName(design), per_txn,
                    (unsigned long long)txns);
    }

    std::uint64_t snapshot_calls = 0, image_bytes = 0;
    const std::uint64_t snapshot_bytes =
        snapshotBytes(snapshot_calls, image_bytes);
    const std::uint64_t snapshot_bound = image_bytes / 32;
    const double mib = 1024.0 * 1024.0;
    std::printf("\ndurable snapshot after sps init, Table-I machine, 4 KB "
                "entries (%.1f MiB image)\n\n",
                double(image_bytes) / mib);
    std::printf("  %-38s %8.1f MiB in %llu allocs (bound %.1f MiB)\n",
                "System::makeDurableSnapshot",
                double(snapshot_bytes) / mib,
                (unsigned long long)snapshot_calls,
                double(snapshot_bound) / mib);
    if (snapshot_bytes > snapshot_bound) {
        std::fprintf(stderr, "\nFAIL: the durable snapshot allocated "
                             "%llu bytes, above 1/32 of the image\n",
                     (unsigned long long)snapshot_bytes);
        return 1;
    }
    return 0;
}
