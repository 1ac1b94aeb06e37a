#include "designs/design.hh"

#include "atom/logm.hh"
#include "cache/l1_cache.hh"
#include "designs/redo_engine.hh"
#include "sim/logging.hh"

namespace atomsim
{

const char *
logPlacementName(const SystemConfig &cfg)
{
    switch (cfg.hybridMode) {
      case HybridMode::NvmOnly:
        return "flat-nvm";
      case HybridMode::MemoryMode:
        return "dram-cached";
      case HybridMode::AppDirect:
        return cfg.appDirectRegion == AppDirectRegion::LogRegion
                   ? "direct"
                   : "dram-cached";
    }
    return "?";
}

DesignContext::DesignContext(EventQueue &eq, const SystemConfig &cfg,
                             std::vector<std::unique_ptr<LogM>> &logms,
                             std::vector<L1Cache *> l1s, AusPool &pool,
                             RedoEngine *redo, StatSet &stats)
    : _eq(eq),
      _cfg(cfg),
      _logms(logms),
      _l1s(std::move(l1s)),
      _pool(pool),
      _redo(redo),
      _cores(cfg.numCores),
      _statFlushes(stats.counter("design", "commit_flushes")),
      _statCommits(stats.counter("design", "commits")),
      _statStagedAcks(stats.counter("design", "staged_acks"))
{
}

void
DesignContext::atomicBegin(CoreId core, Done done)
{
    switch (_cfg.design) {
      case DesignKind::NonAtomic:
        _eq.postIn(1, std::move(done));
        return;

      case DesignKind::Redo:
        _redo->beginTxn(core);
        _eq.postIn(1, std::move(done));
        return;

      case DesignKind::Base:
      case DesignKind::Atom:
      case DesignKind::AtomOpt: {
        CoreState &cs = _cores[core];
        panic_if(bool(cs.begin), "core %u began two regions at once", core);
        cs.begin = std::move(done);
        // Eventual durability: while this core's previous commit, acked
        // from the staging window, still truncates, its AUS slot is not
        // released. The begin parks; truncated() resumes it.
        if (!cs.staged)
            acquireAus(core);
        return;
      }
    }
    panic("unknown design");
}

void
DesignContext::acquireAus(CoreId core)
{
    _pool.acquire(core, [this, core](std::uint32_t slot) {
        // Arm the AUS at every controller: entries of one update may
        // land behind any of them (data placement decides).
        for (auto &logm : _logms)
            logm->beginUpdate(slot);
        _eq.postIn(1, std::move(_cores[core].begin));
    });
}

void
DesignContext::atomicEnd(CoreId core,
                         const std::vector<Addr> &modified_lines,
                         Done done)
{
    if (_cfg.design == DesignKind::Redo) {
        // No data flushes: the commit record makes the update durable;
        // the backend applies the log in place in the background.
        _redo->commitTxn(core, std::move(done));
        return;
    }
    // Every other design flushes the modified lines durably first;
    // NON-ATOMIC, the upper bound, still writes all modified data back
    // to NVM on completion of the update (Section V), just without
    // logging. The flush loop keeps a bounded issue window (the L1
    // MSHR count), like a clwb loop with limited outstanding misses.
    CoreState &cs = _cores[core];
    panic_if(bool(cs.done), "core %u overlapped two commits", core);
    cs.done = std::move(done);
    cs.lines.assign(modified_lines.begin(), modified_lines.end());
    cs.next = 0;
    if (cs.lines.empty()) {
        flushed(core);
        return;
    }
    pumpFlushes(core);
}

void
DesignContext::pumpFlushes(CoreId core)
{
    CoreState &cs = _cores[core];
    while (cs.next < cs.lines.size() && cs.flushing < _cfg.mshrs) {
        const Addr line = cs.lines[cs.next++];
        ++cs.flushing;
        _statFlushes.inc();
        _l1s[core]->flush(line, [this, core] { flushAcked(core); });
    }
}

void
DesignContext::flushAcked(CoreId core)
{
    CoreState &cs = _cores[core];
    --cs.flushing;
    if (cs.next < cs.lines.size())
        pumpFlushes(core);
    else if (cs.flushing == 0)
        flushed(core);
}

void
DesignContext::flushed(CoreId core)
{
    CoreState &cs = _cores[core];
    if (_cfg.design == DesignKind::NonAtomic) {
        Done done = std::move(cs.done);
        done();
        return;
    }
    if (_cfg.durabilityPolicy == DurabilityPolicy::Eventual &&
        _stagedCommits < _cfg.ssdStagingWindow) {
        // Eventual durability: ack from the volatile staging window.
        // Truncation (and with it genuine durability and the AUS
        // release) continues in the background; a crash before it
        // lands rolls this commit back, so the recovery-point loss is
        // bounded by the window size. A full window falls through to
        // the synchronous path.
        ++_stagedCommits;
        if (_stagedCommits > _stagedPeak)
            _stagedPeak = _stagedCommits;
        _statStagedAcks.inc();
        cs.staged = true;
        _eq.postIn(1, std::move(cs.done));
    }
    truncateAll(core);
}

void
DesignContext::truncateAll(CoreId core)
{
    const int slot = _pool.slotOf(core);
    panic_if(slot < 0, "truncate without an AUS (core %u)", core);
    CoreState &cs = _cores[core];
    panic_if(cs.truncating != 0,
             "core %u began a truncation with one in flight", core);
    cs.truncating = _logms.size();
    for (auto &logm : _logms)
        logm->truncate(std::uint32_t(slot), [this, core] { truncated(core); });
}

void
DesignContext::truncated(CoreId core)
{
    CoreState &cs = _cores[core];
    if (--cs.truncating != 0)
        return;
    _pool.release(core);
    _statCommits.inc();
    if (!_tenantCommits.empty())
        _tenantCommits[core]->inc();
    if (!cs.staged) {
        Done done = std::move(cs.done);
        done();
        return;
    }
    --_stagedCommits;
    cs.staged = false;
    if (cs.begin)
        acquireAus(core);
}

} // namespace atomsim
