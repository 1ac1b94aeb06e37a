/**
 * @file
 * Core model: an in-order issue window over a memory-op stream with a
 * 32-entry store queue.
 *
 * The core pulls transactions from a TransactionSource (timing-directed
 * dispatch) and executes their ops: loads block; stores issue into the
 * StoreQueue and retire asynchronously; Atomic_Begin / Atomic_End call
 * into the design layer (AUS acquisition, commit protocol).
 * This stands in for the paper's out-of-order core: a fixed compute gap
 * between memory ops replaces the non-memory instructions, and only the
 * store queue overlaps memory latency with execution -- the structure
 * through which logging latency reaches the core.
 */

#ifndef ATOMSIM_CPU_CORE_HH
#define ATOMSIM_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <optional>

#include "cpu/mem_op.hh"
#include "cpu/store_queue.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace atomsim
{

class DesignContext;
class L1Cache;

/** Supplies transactions to a core at dispatch time. */
class TransactionSource
{
  public:
    virtual ~TransactionSource() = default;

    /** Next transaction for @p core; std::nullopt when done. */
    virtual std::optional<Transaction> next(CoreId core) = 0;

    /**
     * Completion hook for latency measurement: called once per
     * transaction when its last op retires, with the dispatch tick
     * (transaction received from the source) and the completion tick.
     * Purely observational -- overriding it never changes simulated
     * behavior.
     */
    virtual void
    completed(CoreId, const Transaction &, Tick /*start*/, Tick /*end*/)
    {
    }
};

/**
 * Global transaction ticket: at most one core holds it, waiters are
 * granted strictly in arrival order. This is the timing-level stand-in
 * for the lock-based isolation ATOM requires from software: workloads
 * whose atomic regions mutate SHARED structures (TPC-C's B+-trees and
 * district rows) are only crash-consistent when concurrent regions
 * never overlap on a line -- rolling back one core's incomplete region
 * would otherwise restore pre-images over another core's committed
 * writes.
 *
 * The ticket spans the WHOLE transaction (fetch through completion),
 * not just the Atomic_Begin..Atomic_End window. A transaction's store
 * payloads are computed functionally at fetch, so fetch order is the
 * order shared-structure mutations compose in; serializing only the
 * region would let a core whose pre-region loads finish early commit
 * ahead of a functionally-earlier peer, and rolling that peer back
 * after a crash leaves durable writes that structurally assume the
 * rolled-back update. Opt-in via
 * SystemConfig::serializeAtomicRegions; the per-core micro workloads
 * never need it, so default timing -- and every pinned golden -- is
 * unchanged.
 */
class RegionSerializer
{
  public:
    /** Grant continuation: the waiting core's [this]. */
    using Granted = InplaceCallback<8>;

    /** Call @p granted once the ticket is exclusively held. Runs
     * inline when the ticket is free. */
    void
    acquire(Granted granted)
    {
        if (!_held) {
            _held = true;
            granted();
            return;
        }
        _waiters.push_back(std::move(granted));
    }

    /** Hand the ticket to the oldest waiter (inline), or free it. */
    void
    release()
    {
        if (_waiters.empty()) {
            _held = false;
            return;
        }
        auto granted = std::move(_waiters.front());
        _waiters.pop_front();
        granted();
    }

  private:
    bool _held = false;
    std::deque<Granted> _waiters;
};

/**
 * Machine-wide run progress, bumped by every core as it commits and as
 * it finishes, so a run's stop predicates read it in O(1) instead of
 * scanning the cores before every event.
 */
struct RunTally
{
    std::uint64_t committed = 0;  //!< transactions committed, all cores
    std::uint32_t done = 0;       //!< cores for which done() holds
};

/** One simulated core. */
class Core
{
  public:
    /** @param tally machine-wide progress this core adds to */
    Core(CoreId id, EventQueue &eq, const SystemConfig &cfg, L1Cache &l1,
         StatSet &stats, RunTally &tally);

    void setSource(TransactionSource *src) { _source = src; }
    void setDesign(DesignContext *design) { _design = design; }
    /** Gate each whole transaction (fetch through completion) on the
     * shared ticket (see RegionSerializer; nullptr = default ungated
     * timing). */
    void setRegionSerializer(RegionSerializer *s) { _regionSer = s; }

    /** Begin pulling and executing transactions. */
    void start();

    /** True once the source is exhausted and all work retired. */
    bool done() const { return _done; }

    CoreId id() const { return _id; }
    StoreQueue &storeQueue() { return _sq; }

    std::uint64_t committed() const { return _statCommitted.value(); }

  private:
    void nextTransaction();
    void fetchTransaction();
    void execOp(std::size_t idx);
    void opDone(std::size_t idx);

    CoreId _id;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    L1Cache &_l1;
    StoreQueue _sq;
    RunTally &_tally;

    TransactionSource *_source = nullptr;
    DesignContext *_design = nullptr;
    RegionSerializer *_regionSer = nullptr;

    std::optional<Transaction> _txn;
    bool _done = false;
    Tick _txnStart = 0;  //!< dispatch tick of the running transaction

    // Recurring kernel events (one of each pending at most; the core
    // is in-order, so op completion and the inter-op gap alternate).
    TickEvent _nextTxnEvent;  //!< pull the next transaction
    TickEvent _opDoneEvent;   //!< completion of the op at _opDoneIdx
    TickEvent _execOpEvent;   //!< start of the op at _execIdx
    std::size_t _opDoneIdx = 0;
    std::size_t _execIdx = 0;

    Counter &_statCommitted;
    Counter &_statOps;
    Counter &_statLoadStallCycles;
};

} // namespace atomsim

#endif // ATOMSIM_CPU_CORE_HH
