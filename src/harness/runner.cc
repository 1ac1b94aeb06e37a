#include "harness/runner.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace atomsim
{

Runner::Runner(const SystemConfig &cfg, Workload &workload,
               std::uint32_t txns_per_core, Addr data_bytes)
    : _system(std::make_unique<System>(cfg, data_bytes)),
      _workload(workload),
      _txnsPerCore(txns_per_core),
      _issued(cfg.numCores, 0)
{
    _heap = std::make_unique<PersistentHeap>(
        kPageBytes,  // keep page 0 unmapped (null detection)
        _system->addressMap().logBase(), cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        _rngs.emplace_back(cfg.seed * 7919 + c);
    _latency.resize(std::size_t(cfg.tenantSlots()) * kTxnClasses);
}

void
Runner::setUp()
{
    DirectAccessor direct(_system->archMem());
    _workload.init(direct, *_heap, _system->numCores());
    _system->makeDurableSnapshot();
    for (CoreId c = 0; c < _system->numCores(); ++c) {
        _system->core(c).setSource(this);
        _system->core(c).setTxnObserver(
            [this](CoreId, const Transaction &txn, Tick start, Tick end) {
                const std::uint32_t tenant = std::min<std::uint32_t>(
                    txn.tenant, _system->config().tenantSlots() - 1);
                const std::uint32_t cls = std::min<std::uint32_t>(
                    txn.txnClass, kTxnClasses - 1);
                _latency[tenant * kTxnClasses + cls].record(end - start);
            });
        _system->core(c).start();
    }
}

const LatencyHistogram &
Runner::latency(std::uint32_t tenant, std::uint32_t cls) const
{
    return _latency[std::size_t(tenant) * kTxnClasses +
                    std::min(cls, kTxnClasses - 1)];
}

std::optional<Transaction>
Runner::next(CoreId core)
{
    if (_issued[core] >= _txnsPerCore)
        return std::nullopt;
    ++_issued[core];

    Transaction txn;
    txn.id = _nextTxnId++;
    RecordingAccessor rec(_system->archMem(), txn);
    _workload.runTransaction(core, rec, _rngs[core]);
    panic_if(rec.inAtomic(), "workload left the atomic region open");
    return txn;
}

bool
Runner::allDone() const
{
    const System &sys = *_system;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        if (!sys.core(c).done())
            return false;
    }
    return true;
}

std::uint64_t
Runner::committed() const
{
    const System &sys = *_system;
    std::uint64_t total = 0;
    for (CoreId c = 0; c < sys.numCores(); ++c)
        total += sys.core(c).committed();
    return total;
}

RunResult
Runner::collect(Tick start_tick, Tick end_tick) const
{
    const StatSet &stats = std::as_const(*_system).stats();
    RunResult r;
    r.txns = committed();
    r.cycles = end_tick - start_tick;
    const double secs =
        double(r.cycles) / _system->config().clockHz;
    r.txnPerSec = secs > 0 ? double(r.txns) / secs : 0.0;
    r.sqFullCycles = stats.sum("core", "sq_full_cycles");
    r.logWrites = stats.sum("logi", "log_writes");
    r.logEntries = stats.sum("logm", "entries") +
                   stats.sum("redo", "log_entries");
    r.sourceLogged = stats.sum("logm", "source_logged");
    r.memLogWrites = stats.sum("mc", "log_writes");
    r.memDataWrites = stats.sum("mc", "data_writes");
    r.memDemandReads = stats.sum("mc", "demand_reads");
    r.memLogReads = stats.sum("mc", "log_reads");
    r.dramHits = stats.sum("mc", "dram_hits");
    r.dramMisses = stats.sum("mc", "dram_misses");
    r.dramRowHits = stats.sum("mc", "row_hits");
    r.dramWbEvictions = stats.sum("mc", "wb_evictions");
    return r;
}

RunResult
Runner::run(Tick limit)
{
    const Tick start = _system->eventQueue().now();
    advanceTo(limit);
    fatal_if(!allDone(), "simulation hit the tick limit before "
                         "completing (deadlock or limit too small)");
    return collect(start, _system->eventQueue().now());
}

void
Runner::advanceTo(Tick limit)
{
    _system->eventQueue().runUntil([this] { return allDone(); }, limit);
}

Tick
Runner::runUntilCrash(double fraction, std::uint64_t crash_seed)
{
    EventQueue &eq = _system->eventQueue();
    const std::uint64_t target = std::uint64_t(
        fraction * double(_txnsPerCore) * _system->numCores());

    eq.runUntil([this, target] { return committed() >= target; });

    // Jitter the exact crash point so sweeps hit different machine
    // states (mid-log-write, mid-flush, mid-truncate, ...).
    Random rng(crash_seed);
    const Cycles extra = rng.below(2000);
    const Tick deadline = eq.now() + extra;
    eq.run(deadline);

    _system->powerFail();
    return eq.now();
}

Tick
Runner::crashAt(Tick tick)
{
    EventQueue &eq = _system->eventQueue();
    eq.run(tick);
    _system->powerFail();
    return eq.now();
}

Tick
Runner::runUntilDestageCrash(std::uint64_t crash_seed)
{
    fatal_if(!_system->destage(0),
             "runUntilDestageCrash needs the flash tier (ssdTier)");
    EventQueue &eq = _system->eventQueue();

    eq.runUntil([this] {
        if (allDone())
            return true;
        const std::uint32_t mcs = _system->config().numMemCtrls;
        for (McId m = 0; m < mcs; ++m) {
            if (_system->destage(m)->destagesInFlight() > 0)
                return true;
        }
        return false;
    });

    // Jitter so sweeps land the crash in different destage phases
    // (snapshot programming, map write, promotion, clear).
    Random rng(crash_seed);
    const Tick deadline = eq.now() + rng.below(500);
    eq.run(deadline);

    _system->powerFail();
    return eq.now();
}

RecoveryReport
Runner::crashDuringRecovery(double fraction)
{
    fatal_if(fraction < 0.0 || fraction > 1.0,
             "recovery-crash fraction must be in [0, 1]");
    System &sys = *_system;
    const SystemConfig &cfg = sys.config();
    const bool redo = cfg.design == DesignKind::Redo;
    RecoveryManager undo_mgr(cfg, sys.addressMap());
    RedoRecovery redo_mgr(cfg, sys.addressMap());

    // Reference pass on a clone: counts the total record applications
    // a single uninterrupted recovery performs (so the fraction is of
    // real work, not a guess), without touching the durable image.
    DataImage probe = sys.nvmImage().clone();
    RecoveryOptions ref_opts;
    if (sys.ssd(0)) {
        // Flash tier: the reference pass must rehydrate too (from the
        // real, read-only flash images) or it undercounts the work of
        // a pass over destaged log buckets.
        ref_opts.flashImage = [&sys](McId m) -> const DataImage * {
            SsdDevice *ssd = sys.ssd(m);
            return ssd ? &ssd->flash() : nullptr;
        };
    }
    const RecoveryReport full = redo ? redo_mgr.recover(probe, ref_opts)
                                     : undo_mgr.recover(probe, ref_opts);

    // Interrupted pass on the real image: recovery itself crashes
    // after fraction * N applications, and -- when the fault model
    // says so -- the second failure tears recovery's own in-flight
    // writes at a seeded word boundary.
    RecoveryOptions opts;
    opts.maxApplications =
        std::uint32_t(double(full.recordsApplied) * fraction);
    opts.tornWrites = cfg.tornWrites;
    opts.faultSeed = cfg.faultSeed;
    if (redo)
        sys.recoverRedo(opts);
    else
        sys.recover(opts);

    // Restart: a fresh full pass. The log and ADR regions were only
    // read by the interrupted pass, so this pass sees the identical
    // valid-record set and rewrites every affected data line in full
    // -- newest-first undo is idempotent under double failure.
    return redo ? sys.recoverRedo() : sys.recover();
}

} // namespace atomsim
