/**
 * @file
 * Miss status handling registers.
 *
 * An MSHR tracks one outstanding line miss and the accesses waiting on
 * it. The table bounds outstanding misses (32 in Table I); requests
 * that find the table full wait in an overflow queue, modeling the
 * structural stall.
 *
 * The table is allocation-free in steady state: entries live in a
 * fixed array sized at construction, and waiter continuations are
 * intrusive pool nodes owned by the table. The continuation itself is
 * a fixed-capacity InplaceFunction -- a capture that outgrows it is a
 * compile error, not a silent heap allocation -- sized for the L1 load
 * path's retry (this + addr + a 48-byte completion object).
 */

#ifndef ATOMSIM_CACHE_MSHR_HH
#define ATOMSIM_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/pool.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Table of outstanding misses with per-line waiter lists. */
class MshrTable
{
  public:
    /** Inline capacity of a miss continuation, in bytes. */
    static constexpr std::size_t kContinuationBytes = 72;

    /** A waiter's resume action, stored inline in the pool node. */
    using Continuation = InplaceCallback<kContinuationBytes>;

    /** Pooled waiter node; entries chain these FIFO. */
    struct Waiter
    {
        Waiter *next = nullptr;
        Continuation fn;
    };

    explicit MshrTable(std::uint32_t entries);
    ~MshrTable();

    MshrTable(const MshrTable &) = delete;
    MshrTable &operator=(const MshrTable &) = delete;

    /** True if a miss to this line is already outstanding. */
    bool has(Addr line_addr) const;

    /** True if no entry is free (and the line is not already tracked). */
    bool full() const { return _active >= _entries.size(); }

    /**
     * Allocate an entry for @p line_addr.
     * @pre !has(line_addr) && !full()
     */
    void allocate(Addr line_addr);

    /** Add a continuation to run when the line's fill completes. */
    void addWaiter(Addr line_addr, Continuation &&w);

    /**
     * Complete the miss: deallocates the entry and returns its waiter
     * chain (FIFO), with one queued overflow request appended if any.
     * Run the chain with runAndPop():
     *
     *     for (Waiter *w = mshrs.complete(line); w;)
     *         w = mshrs.runAndPop(w);
     */
    Waiter *complete(Addr line_addr);

    /** Invoke @p w's continuation, recycle the node, return the next
     * waiter in the chain. Reentrant: the continuation may allocate
     * entries and waiters (the chain is already detached). */
    Waiter *runAndPop(Waiter *w);

    /** Queue a continuation to run when any entry frees up. */
    void queueForFree(Continuation &&w);

    std::size_t active() const { return _active; }
    std::size_t overflowDepth() const { return _overflowCount; }

    // --- pool introspection (tests / no-allocation proofs) ------------

    /** Waiter nodes ever allocated (pool high-water mark). */
    std::size_t waiterPoolAllocated() const { return _pool.allocated(); }

    /** Waiter nodes currently idle on the free list. */
    std::size_t waiterPoolFree() const { return _pool.idle(); }

  private:
    using WaiterFifo = IntrusiveFifo<Waiter>;

    /** One MSHR entry, pooled in the fixed table array. The waiter
     * chain (the miss's continuations) is owned by the entry. */
    struct Entry
    {
        Addr line = 0;
        bool used = false;
        WaiterFifo waiters;
    };

    Entry *find(Addr line_addr);
    const Entry *find(Addr line_addr) const;

    void releaseWaiter(Waiter *w);

    std::vector<Entry> _entries;  //!< fixed-size table (Table I: 32)
    std::size_t _active = 0;

    WaiterFifo _overflow;  //!< structural-stall queue
    std::size_t _overflowCount = 0;

    FreeListPool<Waiter> _pool;
};

// The waiter node (link + inline continuation) must stay compact: it
// is the unit the miss path recycles on every fill.
static_assert(sizeof(MshrTable::Waiter) <= 96,
              "MSHR waiter node grew past its budget");

} // namespace atomsim

#endif // ATOMSIM_CACHE_MSHR_HH
