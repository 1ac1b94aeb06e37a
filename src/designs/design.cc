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

AusPool::AusPool(EventQueue &eq, std::uint32_t slots, std::uint32_t cores,
                 StatSet &stats)
    : _eq(eq),
      _slotOf(cores, -1),
      _slotBusy(slots, false),
      _statStallCycles(stats.counter("aus", "structural_stall_cycles")),
      _statAcquires(stats.counter("aus", "acquires"))
{
}

void
AusPool::acquire(CoreId core, std::function<void(std::uint32_t)> granted)
{
    panic_if(_slotOf[core] >= 0, "core %u already holds an AUS", core);
    for (std::uint32_t s = 0; s < _slotBusy.size(); ++s) {
        if (!_slotBusy[s]) {
            _slotBusy[s] = true;
            _slotOf[core] = int(s);
            _statAcquires.inc();
            if (!_tenantAcquires.empty())
                _tenantAcquires[core]->inc();
            granted(s);
            return;
        }
    }
    // Structural overflow: wait for a slot (Section IV-E).
    _waiters.emplace_back(_eq.now(),
                          std::make_pair(core, std::move(granted)));
}

void
AusPool::release(CoreId core)
{
    const int slot = _slotOf[core];
    panic_if(slot < 0, "core %u releases no AUS", core);
    _slotOf[core] = -1;

    if (!_waiters.empty()) {
        auto [since, waiter] = std::move(_waiters.front());
        _waiters.pop_front();
        _statStallCycles.inc(_eq.now() - since);
        auto [wcore, granted] = std::move(waiter);
        _slotOf[wcore] = slot;
        _statAcquires.inc();
        if (!_tenantAcquires.empty())
            _tenantAcquires[wcore]->inc();
        granted(std::uint32_t(slot));
        return;
    }
    _slotBusy[std::size_t(slot)] = false;
}

int
AusPool::slotOf(CoreId core) const
{
    return _slotOf[core];
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
      _commitInFlight(cfg.numCores, false),
      _pendingBegin(cfg.numCores),
      _truncateJoin(cfg.numCores),
      _statFlushes(stats.counter("design", "commit_flushes")),
      _statCommits(stats.counter("design", "commits")),
      _statStagedAcks(stats.counter("design", "staged_acks"))
{
}

void
DesignContext::atomicBegin(CoreId core, std::function<void()> done)
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
      case DesignKind::AtomOpt:
        if (_commitInFlight[core]) {
            // Eventual durability: this core's previous commit was
            // acked from the staging window and its truncation is
            // still running, so the AUS slot is not yet released.
            // Park the begin; it resumes when the truncation lands.
            panic_if(_pendingBegin[core] != nullptr,
                     "core %u double-parked an atomicBegin", core);
            _pendingBegin[core] = std::move(done);
            return;
        }
        _pool.acquire(core, [this, done = std::move(done)](
                                std::uint32_t slot) mutable {
            // Arm the AUS at every controller: entries of one update
            // may land behind any of them (data placement decides).
            for (auto &logm : _logms)
                logm->beginUpdate(slot);
            _eq.postIn(1, std::move(done));
        });
        return;
    }
    panic("unknown design");
}

void
DesignContext::flushLines(CoreId core, std::vector<Addr> lines,
                          std::function<void()> done)
{
    if (lines.empty()) {
        done();
        return;
    }
    // Flush with a bounded issue window (the L1 MSHR count), like a
    // clwb loop with limited outstanding misses. The state is kept
    // alive by the outstanding flush acks alone (no self-referential
    // closure), so it is freed when the last ack lands.
    auto st = std::make_shared<FlushState>();
    st->lines = std::move(lines);
    st->done = std::move(done);
    pumpFlushes(core, st);
}

void
DesignContext::pumpFlushes(CoreId core,
                           const std::shared_ptr<FlushState> &st)
{
    while (st->next < st->lines.size() && st->pending < _cfg.mshrs) {
        const Addr line = st->lines[st->next++];
        ++st->pending;
        _statFlushes.inc();
        _l1s[core]->flush(line, [this, core, st] {
            --st->pending;
            if (st->next < st->lines.size()) {
                pumpFlushes(core, st);
            } else if (st->pending == 0) {
                st->done();
            }
        });
    }
}

void
DesignContext::truncateAll(CoreId core, std::function<void()> done)
{
    const int slot = _pool.slotOf(core);
    panic_if(slot < 0, "truncate without an AUS (core %u)", core);

    TruncateJoin &join = _truncateJoin[core];
    panic_if(join.pending != 0,
             "core %u began a truncation with one in flight", core);
    join.pending = _logms.size();
    join.done = std::move(done);
    // The per-controller callback captures only (this, core), so it
    // fits std::function's small buffer: no allocation per commit.
    for (auto &logm : _logms)
        logm->truncate(std::uint32_t(slot), [this, core] { truncated(core); });
}

void
DesignContext::truncated(CoreId core)
{
    TruncateJoin &join = _truncateJoin[core];
    if (--join.pending != 0)
        return;
    std::function<void()> done = std::move(join.done);
    _pool.release(core);
    countCommit(core);
    done();
}

void
DesignContext::atomicEnd(CoreId core,
                         const std::vector<Addr> &modified_lines,
                         std::function<void()> done)
{
    switch (_cfg.design) {
      case DesignKind::NonAtomic:
        // Upper bound: still writes all modified data back to NVM on
        // completion of the update (Section V), just without logging.
        flushLines(core, modified_lines, std::move(done));
        return;

      case DesignKind::Redo:
        // No data flushes: the commit record makes the update durable;
        // the backend applies the log in place in the background.
        _redo->commitTxn(core, std::move(done));
        return;

      case DesignKind::Base:
      case DesignKind::Atom:
      case DesignKind::AtomOpt:
        flushLines(core, modified_lines,
                   [this, core, done = std::move(done)]() mutable {
                       if (_cfg.durabilityPolicy ==
                               DurabilityPolicy::Eventual &&
                           _stagedCommits < _cfg.ssdStagingWindow) {
                           // Eventual durability: ack from the
                           // volatile staging window. Truncation (and
                           // with it genuine durability and the AUS
                           // release) continues in the background; a
                           // crash before it lands rolls this commit
                           // back, so the recovery-point loss is
                           // bounded by the window size. A full window
                           // falls through to the synchronous path.
                           ++_stagedCommits;
                           if (_stagedCommits > _stagedPeak)
                               _stagedPeak = _stagedCommits;
                           _statStagedAcks.inc();
                           _commitInFlight[core] = true;
                           _eq.postIn(1, std::move(done));
                           truncateAll(core, [this, core] {
                               --_stagedCommits;
                               _commitInFlight[core] = false;
                               if (_pendingBegin[core]) {
                                   auto parked =
                                       std::move(_pendingBegin[core]);
                                   _pendingBegin[core] = nullptr;
                                   atomicBegin(core, std::move(parked));
                               }
                           });
                           return;
                       }
                       truncateAll(core, std::move(done));
                   });
        return;
    }
    panic("unknown design");
}

} // namespace atomsim
