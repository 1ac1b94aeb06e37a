/**
 * @file
 * Design layer: the per-design atomic-region protocol.
 *
 * The five evaluated designs (Section V) share the same substrate and
 * differ only in the region protocol implemented here:
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
#include <memory>
#include <vector>

#include "atom/aus.hh"
#include "sim/callback.hh"
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
 * The design-specific actions at atomic-region boundaries, shared by
 * all designs; behavior branches on the configured DesignKind.
 *
 * A core runs one atomic region at a time (an eventual commit's
 * background truncation parks the core's next begin), so each core's
 * commit protocol lives in one CoreState slot and its stages are
 * methods that name the core: no closure outlives a stage.
 */
class DesignContext
{
  public:
    /** Continuation of a region boundary (the core's [this, idx]). */
    using Done = InplaceCallback<16>;

    DesignContext(EventQueue &eq, const SystemConfig &cfg,
                  std::vector<std::unique_ptr<LogM>> &logms,
                  std::vector<L1Cache *> l1s, AusPool &pool,
                  RedoEngine *redo, StatSet &stats);

    /**
     * Atomic_Begin: acquire an AUS (stalling on structural overflow)
     * and arm logging for @p core.
     */
    void atomicBegin(CoreId core, Done done);

    /**
     * Atomic_End commit protocol: for undo designs, durably flush
     * @p modified_lines then truncate the log; for REDO, drain the
     * redo buffer and persist the commit record. @p done marks the
     * transaction durable.
     */
    void atomicEnd(CoreId core, const std::vector<Addr> &modified_lines,
                   Done done);

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
    /** One core's atomic region in flight. */
    struct CoreState
    {
        Done begin;  //!< Atomic_Begin waiting for its AUS
        Done done;   //!< Atomic_End waiting for its commit
        std::vector<Addr> lines;  //!< the commit's lines to flush
        std::size_t next = 0;        //!< next line of lines to flush
        std::size_t flushing = 0;    //!< flushes awaiting their ack
        std::size_t truncating = 0;  //!< controllers yet to truncate
        /** Acked from the staging window; the truncation still runs,
         * so the AUS is held and a new begin parks. */
        bool staged = false;
    };

    /** Take an AUS for @p core's parked begin, then arm it. */
    void acquireAus(CoreId core);

    /** Issue flushes up to the window (the L1 MSHR count). */
    void pumpFlushes(CoreId core);

    /** One of @p core's flushes is durable. */
    void flushAcked(CoreId core);

    /** Every line of @p core's commit is durable: finish a
     * NON-ATOMIC commit, or stage (eventual durability) or truncate. */
    void flushed(CoreId core);

    /** Truncate @p core's AUS at every controller. */
    void truncateAll(CoreId core);

    /** One controller finished truncating @p core's AUS; the last one
     * releases the AUS and counts the commit, then finishes it or
     * resumes a begin that parked on the staged truncation. */
    void truncated(CoreId core);

    EventQueue &_eq;
    const SystemConfig &_cfg;
    std::vector<std::unique_ptr<LogM>> &_logms;
    std::vector<L1Cache *> _l1s;
    AusPool &_pool;
    RedoEngine *_redo;
    std::vector<CoreState> _cores;

    std::vector<Counter *> _tenantCommits;   //!< per core; may be empty

    // --- eventual durability -----------------------------------------
    std::uint32_t _stagedCommits = 0;
    std::uint32_t _stagedPeak = 0;

    Counter &_statFlushes;
    Counter &_statCommits;
    Counter &_statStagedAcks;
};

} // namespace atomsim

#endif // ATOMSIM_DESIGNS_DESIGN_HH
