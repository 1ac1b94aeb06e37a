/**
 * @file
 * Design layer: AUS slot pool and per-design atomic-region hooks.
 *
 * The five evaluated designs (Section V) share the same substrate and
 * differ only in the hooks installed here:
 *
 *  - BASE      undo log, ack-on-persist (logging in the critical path)
 *  - ATOM      undo log with posted log writes
 *  - ATOM-OPT  posted + source logging
 *  - NON-ATOMIC no logging (upper bound); still flushes at commit
 *  - REDO      hardware-assisted redo logging (Doshi et al.)
 */

#ifndef ATOMSIM_DESIGNS_DESIGN_HH
#define ATOMSIM_DESIGNS_DESIGN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

class L1Cache;
class LogM;
class RedoEngine;

/**
 * Log-placement policy of the hybrid memory system, as it applies to
 * the configured design: where ATOM's log region lands relative to the
 * DRAM tier. "direct" = log pages bypass the DRAM cache (straight to
 * NVM); "dram-cached" = the log region sits behind the cache (log
 * *writes* still persist write-through -- only log reads, i.e. the
 * REDO backend's replay traffic, gain DRAM locality); "flat-nvm" =
 * no DRAM tier at all. bench/hybrid_sweep.cc labels its design points
 * with this.
 */
const char *logPlacementName(const SystemConfig &cfg);

/**
 * Pool of AUS slots shared by the cores.
 *
 * The paper supports one atomic update per core (32 AUS); when fewer
 * slots than cores are configured, Atomic_Begin stalls until a slot
 * frees -- a structural overflow, which cannot deadlock because the
 * waiting update holds no resources (Section IV-E).
 */
class AusPool
{
  public:
    AusPool(EventQueue &eq, std::uint32_t slots, std::uint32_t cores,
            StatSet &stats);

    /** Acquire a slot for @p core; @p granted runs with the slot id. */
    void acquire(CoreId core, std::function<void(std::uint32_t)> granted);

    /** Release @p core's slot (after truncation completes). */
    void release(CoreId core);

    /** Slot of @p core, or -1 when it has no active atomic update. */
    int slotOf(CoreId core) const;

    std::uint64_t
    structuralStallCycles() const
    {
        return _statStallCycles.value();
    }

    /** Per-core tenant acquire counters ("tenantN.aus_acquires");
     * empty (the default) disables per-tenant accounting. */
    void
    setTenantCounters(std::vector<Counter *> per_core)
    {
        _tenantAcquires = std::move(per_core);
    }

  private:
    EventQueue &_eq;
    std::vector<int> _slotOf;        //!< per core; -1 = none
    std::vector<bool> _slotBusy;
    std::deque<std::pair<Tick, std::pair<CoreId,
        std::function<void(std::uint32_t)>>>> _waiters;

    Counter &_statStallCycles;
    Counter &_statAcquires;
    std::vector<Counter *> _tenantAcquires;  //!< per core; may be empty
};

/**
 * DesignHooks implementation shared by all designs; behavior branches
 * on the configured DesignKind.
 */
class DesignContext : public DesignHooks
{
  public:
    DesignContext(EventQueue &eq, const SystemConfig &cfg,
                  std::vector<std::unique_ptr<LogM>> &logms,
                  std::vector<L1Cache *> l1s, AusPool &pool,
                  RedoEngine *redo, StatSet &stats);

    void atomicBegin(CoreId core, std::function<void()> done) override;
    void atomicEnd(CoreId core, const std::vector<Addr> &modified_lines,
                   std::function<void()> done) override;

    /** Per-core tenant commit counters ("tenantN.commits"); empty (the
     * default) disables per-tenant accounting. */
    void
    setTenantCounters(std::vector<Counter *> per_core)
    {
        _tenantCommits = std::move(per_core);
    }

    /** Eventual durability: commits acked from the volatile staging
     * window whose truncation is still in flight. A crash now rolls
     * exactly these commits back -- the policy's recovery-point loss. */
    std::uint32_t stagedCommits() const { return _stagedCommits; }

    /** High-water mark of staging-window occupancy (bench gate: must
     * stay <= SystemConfig::ssdStagingWindow). */
    std::uint32_t stagedPeak() const { return _stagedPeak; }

  private:
    /** Count a commit for @p core (global + per-tenant). */
    void
    countCommit(CoreId core)
    {
        _statCommits.inc();
        if (!_tenantCommits.empty())
            _tenantCommits[core]->inc();
    }

    /** In-flight state of one commit's flush loop (shared by the
     * outstanding flush acks; freed when the last one completes). */
    struct FlushState
    {
        std::vector<Addr> lines;
        std::size_t next = 0;
        std::size_t pending = 0;
        std::function<void()> done;
    };

    /** Flush @p lines durably with a bounded issue window. */
    void flushLines(CoreId core, std::vector<Addr> lines,
                    std::function<void()> done);

    /** Issue flushes up to the window (the L1 MSHR count). */
    void pumpFlushes(CoreId core, const std::shared_ptr<FlushState> &st);

    /** Truncate @p core's AUS at every controller, then release it. */
    void truncateAll(CoreId core, std::function<void()> done);

    EventQueue &_eq;
    const SystemConfig &_cfg;
    std::vector<std::unique_ptr<LogM>> &_logms;
    std::vector<L1Cache *> _l1s;
    AusPool &_pool;
    RedoEngine *_redo;

    std::vector<Counter *> _tenantCommits;   //!< per core; may be empty

    // --- eventual durability -----------------------------------------
    std::uint32_t _stagedCommits = 0;
    std::uint32_t _stagedPeak = 0;
    /** Per core: an early-acked commit's truncation still runs, so the
     * AUS slot is not yet released and a new begin must park. */
    std::vector<bool> _commitInFlight;
    std::vector<std::function<void()>> _pendingBegin;  //!< per core

    Counter &_statFlushes;
    Counter &_statCommits;
    Counter &_statStagedAcks;
};

} // namespace atomsim

#endif // ATOMSIM_DESIGNS_DESIGN_HH
