/**
 * @file
 * The store queue (SQ).
 *
 * Stores issue into the SQ and retire, in order, from its head into the
 * L1 -- possibly waiting on the active design's logging protocol. When
 * retirement is slow the SQ fills and back-pressures the pipeline; the
 * cycles a store spends waiting for a free SQ entry are the paper's
 * "SQ full cycles" metric (Figure 6).
 *
 * The SQ is a fixed ring of sqEntries slots that hold each store, its
 * payload included, by value; continuations are fixed-capacity
 * InplaceCallbacks, and stores that find the ring full park by value in
 * a FIFO of pooled nodes. The store path allocates nothing in steady
 * state.
 */

#ifndef ATOMSIM_CPU_STORE_QUEUE_HH
#define ATOMSIM_CPU_STORE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "cpu/mem_op.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

class L1Cache;

/** One core's store queue. */
class StoreQueue
{
  public:
    /** Acceptance / drain continuation (fixed capacity, no heap). */
    using Callback = InplaceCallback<32>;

    StoreQueue(CoreId core, EventQueue &eq, std::uint32_t entries,
               std::uint32_t drain_width, L1Cache &l1, StatSet &stats);

    /**
     * Issue @p store (a Store op, copied). @p accepted runs as soon as
     * the store owns an SQ entry (immediately when not full); the
     * producing core stalls until then. Retirement proceeds
     * asynchronously.
     */
    void push(const MemOp &store, Callback &&accepted);

    /** True when no stores are buffered or in flight. */
    bool empty() const { return _count == 0; }

    /** Run @p cb once the queue fully drains (immediately if empty). */
    void whenEmpty(Callback cb);

    /** True if a pending store targets the line of @p addr
     * (store-to-load forwarding). */
    bool holdsLine(Addr addr) const;

    std::size_t occupancy() const { return _count; }

    /** Cycles stores spent waiting for a free entry (Figure 6). */
    std::uint64_t fullCycles() const { return _statFullCycles.value(); }

  private:
    struct Entry
    {
        MemOp store;
        bool issued = false;
        bool done = false;
    };

    /** A parked continuation: a store waiting for a free entry (since
     * its stall began) or a drain waiter. */
    struct Parked
    {
        Parked *next = nullptr;
        Tick since = 0;
        MemOp store;
        Callback cb;
    };

    /** Ring slot of the @p i-th oldest entry (i <= _count). */
    std::size_t
    slotOf(std::size_t i) const
    {
        const std::size_t s = _head + i;
        return s < _ring.size() ? s : s - _ring.size();
    }

    void pump();
    void retireCompleted();

    CoreId _core;
    EventQueue &_eq;
    std::uint32_t _drainWidth;
    L1Cache &_l1;

    std::vector<Entry> _ring;  //!< live entries: _count from _head on
    std::size_t _head = 0;
    std::size_t _count = 0;
    std::uint32_t _issued = 0;

    FreeListPool<Parked> _parkedPool;
    IntrusiveFifo<Parked> _full;   //!< SQ-full stalls, oldest first
    IntrusiveFifo<Parked> _drain;  //!< whenEmpty waiters, oldest first

    Counter &_statFullCycles;
    Counter &_statRetired;
};

} // namespace atomsim

#endif // ATOMSIM_CPU_STORE_QUEUE_HH
