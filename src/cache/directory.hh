/**
 * @file
 * Directory state for the banked shared L2.
 *
 * Each L2 tile is the home node for the lines that map to it and keeps,
 * per resident line, the owning L1 (Modified/Exclusive holder) and a
 * sharer bitmask. A per-line busy flag serializes coherence
 * transactions; queued requests run in arrival order.
 *
 * Both per-line tables are flat LineMaps (sim/line_map.hh) and
 * transaction waiters are fixed-capacity continuations in pooled
 * intrusive nodes, so steady state allocates nothing. A line has a
 * control block only while it is busy: acquire() of an idle line
 * inserts it, and the release() that finds no waiter erases it.
 */

#ifndef ATOMSIM_CACHE_DIRECTORY_HH
#define ATOMSIM_CACHE_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/line_map.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Sentinel: no owning core. */
constexpr CoreId kNoCore = ~CoreId(0);

/**
 * A set of sharing cores, scaled past 64.
 *
 * The historical representation was a bare uint64_t indexed by core
 * id, which shifts out of range (and would alias invalidations) on the
 * 256-/1024-core presets. Word 0 stays inline, so machines up to 64
 * cores keep the allocation-free fast path bit-for-bit; larger core
 * ids spill into heap words on first set().
 */
class SharerSet
{
  public:
    void
    set(CoreId core)
    {
        if (core < 64) {
            _w0 |= std::uint64_t(1) << core;
            return;
        }
        const std::size_t w = core / 64;
        if (_hi.size() < w)
            _hi.resize(w, 0);
        _hi[w - 1] |= std::uint64_t(1) << (core % 64);
    }

    /** Remove @p core (no-op when absent). */
    void
    clear(CoreId core)
    {
        if (core < 64) {
            _w0 &= ~(std::uint64_t(1) << core);
            return;
        }
        const std::size_t w = core / 64;
        if (w <= _hi.size())
            _hi[w - 1] &= ~(std::uint64_t(1) << (core % 64));
    }

    bool
    test(CoreId core) const
    {
        if (core < 64)
            return (_w0 >> core) & 1;
        const std::size_t w = core / 64;
        return w <= _hi.size() && ((_hi[w - 1] >> (core % 64)) & 1);
    }

    /** Empty the set (spilled capacity is kept for reuse). */
    void
    reset()
    {
        _w0 = 0;
        std::fill(_hi.begin(), _hi.end(), 0);
    }

    bool
    none() const
    {
        if (_w0)
            return false;
        for (std::uint64_t w : _hi)
            if (w)
                return false;
        return true;
    }

    std::uint32_t
    count() const
    {
        std::uint32_t n = std::uint32_t(__builtin_popcountll(_w0));
        for (std::uint64_t w : _hi)
            n += std::uint32_t(__builtin_popcountll(w));
        return n;
    }

    /**
     * Call @p fn(core) for every member, in ascending core order. The
     * walk visits set bits only (ctz over each word), so its cost
     * follows the member count, not the machine's core count.
     */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::uint64_t w = _w0; w != 0; w &= w - 1)
            fn(CoreId(__builtin_ctzll(w)));
        for (std::size_t i = 0; i < _hi.size(); ++i) {
            const CoreId base = CoreId((i + 1) * 64);
            for (std::uint64_t w = _hi[i]; w != 0; w &= w - 1)
                fn(base + CoreId(__builtin_ctzll(w)));
        }
    }

  private:
    std::uint64_t _w0 = 0;
    std::vector<std::uint64_t> _hi;  //!< words for cores >= 64
};

/** Directory entry for one line homed at a tile. */
struct DirEntry
{
    /** L1 holding the line Exclusive/Modified, or kNoCore. */
    CoreId owner = kNoCore;
    /** Cores that may hold the line Shared (may be stale:
     * clean lines drop silently; spurious invalidations are no-ops). */
    SharerSet sharers;
};

/**
 * Per-line transaction serialization + directory entries.
 *
 * entry() and find() hand out references into a LineMap: they die at
 * the next entry() or erase(). Likewise acquire() and release() run
 * the line's next transaction last, after they are done with its
 * control block, because that transaction may acquire other lines.
 */
class Directory
{
  public:
    /** Inline capacity of a queued transaction: the flush handler's
     * this + addr + flags + a 64-byte line. */
    static constexpr std::size_t kTxnBytes = 104;
    using Txn = InplaceCallback<kTxnBytes>;

    /** Publish the high-water mark of concurrently busy lines (live
     * control blocks) as @p live_hw ("dirN.ctrl_blocks_live"). */
    void attachStats(Counter *live_hw) { _liveHw = live_hw; }

    /** Lines busy right now, i.e. live control blocks (tests). */
    std::size_t liveCtl() const { return _ctl.size(); }

    /** Directory entries held (tests: at most the resident lines). */
    std::size_t entryCount() const { return _entries.size(); }

    /** Directory entry for @p line_addr (created on demand). */
    DirEntry &entry(Addr line_addr);

    /** The entry of @p line_addr, or nullptr; never inserts. For
     * requests about a line the L2 may no longer hold. */
    DirEntry *find(Addr line_addr);

    /** Drop the entry (line evicted from L2). */
    void erase(Addr line_addr);

    /**
     * Run @p txn when the line's busy slot frees (immediately if free).
     * The transaction must call release() exactly once when done.
     */
    void acquire(Addr line_addr, Txn &&txn);

    /** Finish the current transaction; starts the next queued one. */
    void release(Addr line_addr);

    /** True if a transaction is active on the line. */
    bool busy(Addr line_addr) const;

  private:
    struct Waiter
    {
        Waiter *next = nullptr;
        Txn fn;
    };

    /** A busy line's queue of waiting transactions. */
    using LineCtl = IntrusiveFifo<Waiter>;

    void releaseWaiter(Waiter *w);

    LineMap<DirEntry> _entries;
    LineMap<LineCtl> _ctl;       //!< busy lines only
    Counter *_liveHw = nullptr;  //!< optional occupancy high-water
    std::size_t _liveHwSeen = 0;

    FreeListPool<Waiter> _pool;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_DIRECTORY_HH
