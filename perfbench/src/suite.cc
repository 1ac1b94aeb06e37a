#include "suite.hh"

#include <chrono>
#include <cstdio>
#include <utility>

#include "workloads/btree_workload.hh"
#include "workloads/hash_workload.hh"
#include "workloads/kv_workload.hh"
#include "workloads/queue_workload.hh"
#include "workloads/rbtree_workload.hh"
#include "workloads/sdg_workload.hh"
#include "workloads/sps_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

namespace perfbench
{

using namespace atomsim;

namespace
{

// --- workload definitions ----------------------------------------------

/** The six micro-benchmarks in the paper's figure order. */
const char *kMicros[] = {"btree", "hash", "queue", "rbtree", "sdg", "sps"};

/** Fig. 5's micro-benchmark construction (bench/bench_common.hh). */
std::unique_ptr<Workload>
makeMicro(const std::string &name, MicroParams p)
{
    // sps sweeps an array larger than the caches.
    if (name == "sps")
        p.initialItems = p.entryBytes >= 4096 ? 512 : 2048;
    if (name == "hash")
        return std::make_unique<HashWorkload>(p);
    if (name == "queue")
        return std::make_unique<QueueWorkload>(p);
    if (name == "rbtree")
        return std::make_unique<RbTreeWorkload>(p);
    if (name == "btree")
        return std::make_unique<BTreeWorkload>(p);
    if (name == "sdg")
        return std::make_unique<SdgWorkload>(p);
    return std::make_unique<SpsWorkload>(p);
}

/** The small machine the Tiny scale runs everything on. */
SystemConfig
tinyMachine()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    return cfg;
}

std::vector<Job>
fig5Jobs(std::uint64_t seed, Scale scale)
{
    std::vector<Job> jobs;
    for (bool large : {false, true}) {
        // bench_common.hh's microParams(): the paper's dataset sizes.
        MicroParams p;
        p.entryBytes = large ? 4096 : 512;
        p.initialItems = large ? 24 : 48;
        p.txnsPerCore = large ? 10 : 20;
        p.seed = seed;
        if (scale == Scale::Tiny)
            p.txnsPerCore = 2;
        for (const char *name : kMicros) {
            for (DesignKind d : {DesignKind::Base, DesignKind::Atom,
                                 DesignKind::AtomOpt,
                                 DesignKind::NonAtomic}) {
                Job j;
                j.figure = large ? "fig5b" : "fig5a";
                j.bench = name;
                j.label = j.figure + "/" + name + "/" + designName(d);
                j.cfg = scale == Scale::Tiny ? tinyMachine()
                                             : SystemConfig{};
                j.cfg.design = d;
                j.cfg.seed = seed;
                j.make = [name = std::string(name), p] {
                    return makeMicro(name, p);
                };
                j.txnsPerCore = p.txnsPerCore;
                jobs.push_back(std::move(j));
            }
        }
    }
    return jobs;
}

std::vector<Job>
tpccJobs(std::uint64_t seed, Scale scale)
{
    // parallel_scaling's TpccFull scale on the Table-I machine.
    tpcc::ScaleParams sp;
    sp.customersPerDistrict = scale == Scale::Tiny ? 8 : 16;
    sp.items = scale == Scale::Tiny ? 128 : 512;
    std::vector<Job> jobs;
    for (DesignKind d : {DesignKind::Base, DesignKind::Atom,
                         DesignKind::AtomOpt, DesignKind::Redo}) {
        Job j;
        j.figure = "tpcc";
        j.bench = "new-order";
        j.label = std::string("tpcc/") + designName(d);
        j.cfg = scale == Scale::Tiny ? tinyMachine() : SystemConfig{};
        j.cfg.design = d;
        j.cfg.seed = seed;
        j.make = [sp] { return std::make_unique<TpccWorkload>(sp); };
        j.txnsPerCore = scale == Scale::Tiny ? 2 : 30;
        j.tickLimit = Tick(400000) * 1000 * 1000;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

std::vector<Job>
kvJobs(std::uint64_t seed, Scale scale)
{
    Job j;
    j.label = "kv-serving";
    // The 1024-tile preset, 8 tenants (serving_sweep's largest row).
    j.cfg = scale == Scale::Tiny ? tinyMachine()
                                 : SystemConfig::makeMeshPreset(1024);
    j.cfg.numTenants = scale == Scale::Tiny ? 2 : 8;
    j.cfg.seed = seed;
    KvParams kv;
    kv.numTenants = j.cfg.numTenants;
    kv.theta = 0.99;
    kv.readFraction = 0.5;
    kv.updateFraction = 0.4;
    kv.keysPerTenant = 1024;
    kv.insertsPerCore = 8;
    kv.txnsPerCore = scale == Scale::Tiny ? 2 : 30;
    kv.seed = seed;
    j.make = [kv] { return std::make_unique<KvWorkload>(kv); };
    j.txnsPerCore = kv.txnsPerCore;
    return {j};
}

std::vector<Job>
crashJobs(std::uint64_t seed, Scale scale)
{
    // Every 8th cell of the campaign list (a tiny run keeps a sparse
    // sample of the same list).
    const std::size_t stride = scale == Scale::Tiny ? 400 : 8;
    const std::vector<CrashCell> cells = campaignCells(crashSeeds(seed));
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < cells.size(); i += stride) {
        Job j;
        j.cell = cells[i];
        j.label = cells[i].id();
        j.cfg = cells[i].config();
        j.make = [cell = cells[i]] { return cell.makeWorkload(); };
        j.txnsPerCore = cells[i].txnsPerCore;
        // runCrashCell's data region.
        j.dataBytes = Addr(64) * 1024 * 1024;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

// --- measurement helpers ---------------------------------------------------

/** Simulated ticks per traced slice (Runner::advanceTo granularity). */
constexpr Tick kSliceTicks = 100000;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Run @p f inside span @p name; returns its host seconds. */
template <typename F>
double
timed(Tracer *tracer, const char *name, F &&f)
{
    SpanScope span(tracer, name);
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return secondsSince(t0);
}

/** Forwards to a workload, recording a span around each call Runner
 * makes into the workloads layer (init and transaction generation). */
class TracedWorkload : public Workload
{
  public:
    TracedWorkload(Workload &inner, Tracer &tracer)
        : _inner(inner), _tracer(tracer)
    {
    }

    std::string name() const override { return _inner.name(); }

    void
    init(DirectAccessor &mem, PersistentHeap &heap,
         std::uint32_t num_cores) override
    {
        SpanScope span(&_tracer, "workloads.init");
        _inner.init(mem, heap, num_cores);
    }

    void
    runTransaction(CoreId core, Accessor &mem, Random &rng) override
    {
        SpanScope span(&_tracer, "workloads.txn_gen");
        _inner.runTransaction(core, mem, rng);
    }

    std::string
    checkConsistency(DirectAccessor &mem, std::uint32_t num_cores) override
    {
        return _inner.checkConsistency(mem, num_cores);
    }

  private:
    Workload &_inner;
    Tracer &_tracer;
};

/** FNV-1a over 64-bit words and strings. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    byte(unsigned char b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte((v >> (8 * i)) & 0xff);
    }
    void
    str(const std::string &s)
    {
        for (char c : s)
            byte(static_cast<unsigned char>(c));
        byte(0);
    }
};

/** "core12" -> "core": counters of one component kind add up. */
std::string
counterKey(const std::string &full)
{
    const std::size_t dot = full.find('.');
    if (dot == std::string::npos)
        return full;
    std::size_t g = dot;
    while (g > 0 && full[g - 1] >= '0' && full[g - 1] <= '9')
        --g;
    return full.substr(0, g) + full.substr(dot);
}

bool
allDone(Runner &runner)
{
    System &sys = runner.system();
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        if (!sys.core(c).done())
            return false;
    }
    return true;
}

/**
 * Advance the simulation to completion (or @p job's tick limit) in
 * Runner::advanceTo steps of kSliceTicks simulated ticks, with a
 * reference chunk between steps. Traced runs make each step a span
 * carrying its counter deltas. Slicing must not change any simulated
 * count, which the caller checks through the fingerprint. Returns the
 * seconds spent in reference chunks.
 */
double
simulate(Runner &runner, const Job &job, Tracer *tracer, Calibrator *cal)
{
    double cal_s = 0;
    EventQueue &eq = runner.system().eventQueue();
    const StatSet &stats = std::as_const(runner.system()).stats();
    for (Tick until = eq.now(); until < job.tickLimit;) {
        until = std::min(job.tickLimit, until + kSliceTicks);
        {
            SpanScope span(tracer, "sim.slice");
            const std::uint64_t ev0 = eq.executed();
            const std::uint64_t c0 = runner.committed();
            const std::uint64_t m0 = stats.value("mesh", "messages");
            runner.advanceTo(until);
            if (tracer) {
                char args[160];
                std::snprintf(
                    args, sizeof(args),
                    "\"until\": %llu, \"events\": %llu, "
                    "\"commits\": %llu, \"messages\": %llu",
                    (unsigned long long)until,
                    (unsigned long long)(eq.executed() - ev0),
                    (unsigned long long)(runner.committed() - c0),
                    (unsigned long long)(stats.value("mesh", "messages") -
                                         m0));
                span.setArgs(args);
            }
        }
        if (allDone(runner) || eq.pending() == 0)
            break;
        if (cal) {
            SpanScope span(tracer, "harness.calibrate");
            cal_s += cal->tick();
        }
    }
    return cal_s;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig5", "tpcc",
                                                   "kv-serving",
                                                   "crash-cells"};
    return names;
}

std::vector<Job>
makeJobs(const std::string &workload, std::uint64_t seed, Scale scale)
{
    if (workload == "fig5")
        return fig5Jobs(seed, scale);
    if (workload == "tpcc")
        return tpccJobs(seed, scale);
    if (workload == "kv-serving")
        return kvJobs(seed, scale);
    if (workload == "crash-cells")
        return crashJobs(seed, scale);
    return {};
}

std::vector<std::uint64_t>
crashSeeds(std::uint64_t seed)
{
    return {seed + 18, seed + 19, seed + 20, seed + 21, seed + 22};
}

std::vector<CrashCell>
campaignCells(const std::vector<std::uint64_t> &seeds)
{
    // A frozen copy of bench/crash_campaign.cc's grid, so the benchmark's
    // inputs do not move when the campaign grows.
    struct Shape
    {
        std::uint32_t cores, l2Kb, l2Assoc, entryBytes, items, txns;
        std::uint32_t hybrid;
    };
    static const Shape shapes[] = {
        {4, 8, 2, 512, 32, 10, 0},  {4, 16, 4, 512, 24, 10, 0},
        {2, 8, 2, 512, 32, 12, 0},  {8, 8, 2, 512, 16, 8, 0},
        {4, 8, 2, 4096, 4, 6, 0},   {4, 8, 2, 512, 32, 10, 1},
        {8, 16, 2, 512, 24, 8, 0},  {2, 4, 2, 512, 48, 12, 0},
        {4, 8, 2, 512, 32, 10, 2},  {4, 8, 2, 512, 32, 10, 3},
    };
    static const DesignKind designs[] = {
        DesignKind::Base, DesignKind::Atom, DesignKind::AtomOpt,
        DesignKind::NonAtomic, DesignKind::Redo};
    static const char *micros[] = {"hash", "queue", "btree",
                                   "rbtree", "sdg", "sps"};
    static const double fractions[] = {0.25, 0.5, 0.75};
    struct Fault
    {
        std::uint32_t torn, media, rpct;
    };
    static const Fault faults[] = {
        {1, 0, 0}, {0, 200, 0}, {0, 0, 50}, {1, 0, 50}};
    static const std::size_t faultShapes[] = {0, 4, 5};
    struct Mem
    {
        std::uint32_t aus, mcs;
    };
    static const Mem memShapes[] = {{1, 4}, {2, 4}, {8, 4},
                                    {4, 1}, {4, 2}, {4, 8}};

    std::vector<CrashCell> cells;
    const auto push = [&cells](const Shape &sh, DesignKind design,
                               const char *wl, double fraction,
                               std::uint64_t seed, const Fault &f,
                               std::uint32_t aus = 4,
                               std::uint32_t mcs = 4) {
        CrashCell c;
        c.workload = wl;
        c.design = design;
        c.fraction = fraction;
        c.cores = sh.cores;
        c.l2TileKb = sh.l2Kb;
        c.l2Assoc = sh.l2Assoc;
        c.hybrid = sh.hybrid;
        c.entryBytes = sh.entryBytes;
        c.initialItems = sh.items;
        c.txnsPerCore = sh.txns;
        c.seed = seed;
        c.tornWords = f.torn;
        c.mediaRate = f.media;
        c.recoverPct = f.rpct;
        c.ausPerMc = aus;
        c.numMemCtrls = mcs;
        cells.push_back(c);
    };
    const Fault none{0, 0, 0};
    for (const Shape &sh : shapes)
        for (DesignKind d : designs)
            for (const char *wl : micros)
                for (double fr : fractions)
                    for (std::uint64_t s : seeds)
                        push(sh, d, wl, fr, s, none);
    for (const Fault &f : faults)
        for (std::size_t si : faultShapes)
            for (DesignKind d : designs) {
                if (f.torn != 0 && d == DesignKind::Redo)
                    continue;
                for (const char *wl : micros)
                    for (std::uint64_t s : seeds)
                        push(shapes[si], d, wl, 0.5, s, f);
            }
    for (std::size_t si : {std::size_t(0), std::size_t(7)})
        for (DesignKind d : designs)
            for (double fr : fractions)
                for (std::uint64_t s : seeds)
                    push(shapes[si], d, "tpcc", fr, s, none);
    for (const Mem &m : memShapes)
        for (DesignKind d : designs)
            for (const char *wl : {"hash", "queue", "tpcc"})
                for (std::uint64_t s : seeds)
                    push(shapes[0], d, wl, 0.5, s, none, m.aus, m.mcs);
    for (std::uint32_t dur : {1u, 2u, 3u})
        for (std::uint32_t x : {0u, 1u})
            for (DesignKind d : {DesignKind::Base, DesignKind::Atom,
                                 DesignKind::AtomOpt})
                for (const char *wl : {"hash", "queue"})
                    for (std::uint64_t s : seeds) {
                        push(shapes[0], d, wl, 0.5, s, none);
                        cells.back().durability = dur;
                        cells.back().destageCrash = x;
                    }
    return cells;
}

JobResult
runJob(const Job &job, Tracer *tracer, Calibrator *cal)
{
    if (cal) {
        SpanScope c(tracer, "harness.calibrate");
        cal->tick();
    }
    JobResult r;
    SpanScope job_span(tracer, "harness.job");
    job_span.setArgs("\"label\": \"" + job.label + "\"");

    const std::unique_ptr<Workload> workload = job.make();
    std::unique_ptr<TracedWorkload> proxy;
    Workload *used = workload.get();
    if (tracer) {
        proxy = std::make_unique<TracedWorkload>(*workload, *tracer);
        used = proxy.get();
    }

    std::unique_ptr<Runner> runner;
    r.buildS = timed(tracer, "harness.build", [&] {
        runner = std::make_unique<Runner>(job.cfg, *used, job.txnsPerCore,
                                          job.dataBytes);
    });
    r.setupS = timed(tracer, "harness.setup", [&] { runner->setUp(); });

    System &sys = runner->system();
    EventQueue &eq = sys.eventQueue();
    const Tick start = eq.now();
    const bool atomic = job.cfg.design != DesignKind::NonAtomic;
    const bool redo = job.cfg.design == DesignKind::Redo;
    Tick end = 0;

    if (job.cell) {
        // runCrashCell's sequence, phase by phase.
        const CrashCell &cell = *job.cell;
        r.runS += timed(tracer, "sim.run", [&] {
            end = cell.crashTick != 0 ? runner->crashAt(cell.crashTick)
                  : cell.destageCrash != 0
                      ? runner->runUntilDestageCrash(cell.seed)
                      : runner->runUntilCrash(cell.fraction, cell.seed);
        });
        r.recoveryS = timed(tracer, "atom.recover", [&] {
            if (cell.recoverPct > 0)
                r.report = runner->crashDuringRecovery(
                    double(cell.recoverPct) / 100.0);
            else if (redo)
                r.report = sys.recoverRedo();
            else
                r.report = sys.recover();
        });
    } else {
        double cal_s = 0;
        r.runS += timed(tracer, "sim.run", [&] {
            cal_s = simulate(*runner, job, tracer, cal);
        });
        r.runS -= cal_s;
        end = eq.now();
        if (!allDone(*runner)) {
            r.ok = false;
            r.fault = "hit the tick limit before completing";
        }
    }

    r.cycles = end - start;
    r.events = eq.executed();
    r.wheelInserts = eq.wheelInserts();
    r.spillInserts = eq.spillInserts();
    Fnv fp;
    r.runS += r.recoveryS;
    r.runS += timed(tracer, "harness.stats_dump", [&] {
        for (const auto &[name, value] : std::as_const(sys).stats().dump()) {
            r.counters[counterKey(name)] += value;
            fp.str(name);
            fp.word(value);
        }
    });
    for (std::uint32_t t = 0; t < job.cfg.tenantSlots(); ++t) {
        for (std::uint32_t c = 0; c < Runner::kTxnClasses; ++c) {
            const LatencyHistogram &h = runner->latency(t, c);
            if (h.count() > 0)
                mergeBuckets(r.latency[c], extractBuckets(h));
        }
    }
    for (const Buckets &b : r.latency) {
        r.completions += sampleCount(b);
        for (const auto &[floor, samples] : b) {
            fp.word(floor);
            fp.word(samples);
        }
    }

    if (r.ok && (atomic || !job.cell)) {
        // A completed run checks the functional model's (architectural)
        // image. A crash cell checks the recovered durable image, except
        // NON-ATOMIC cells: that design guarantees nothing across a
        // crash, so they are liveness probes (runCrashCell's verdict).
        DirectAccessor image(job.cell ? sys.nvmImage() : sys.archMem());
        r.runS += timed(tracer, "workloads.check", [&] {
            r.fault = workload->checkConsistency(image, job.cfg.numCores);
        });
        if (r.fault.empty() && job.cell && !r.report.criticalStateFound)
            r.fault = "recovery: ADR critical state missing";
        r.ok = r.fault.empty();
    }

    for (std::uint64_t v :
         {std::uint64_t(r.cycles), r.events, r.completions,
          std::uint64_t(r.report.incompleteUpdates),
          std::uint64_t(r.report.recordsApplied),
          std::uint64_t(r.report.linesRestored),
          std::uint64_t(r.report.tornRecords),
          std::uint64_t(r.report.pagesRehydrated)})
        fp.word(v);
    r.fingerprint = fp.h;
    return r;
}

} // namespace perfbench
