/**
 * @file
 * Private per-core L1 data cache with the ATOM LogI hook.
 *
 * The L1 services the core's loads, stores and flushes. Stores inside
 * an atomic region consult the installed StoreLogger (the ATOM LogI
 * module or the REDO front end) before modifying a line, implementing
 * Invariant 1: a store does not complete until its undo entry exists.
 *
 * The miss path is allocation-free in steady state: completion
 * callbacks are fixed-capacity continuations, miss waiters live in the
 * MSHR table's pooled nodes, and a store's in-flight state (payload
 * bytes + completion) lives in a pooled PendingStore slot that follows
 * the store from first miss through logging to apply -- the
 * continuation is owned by the transaction, not by heap closures.
 * Mesh messages are typed packets (mem/packet.hh): the L1 is the
 * MeshSink for its fill responses, flush acks, and -- since the
 * split-phase coherence rework -- every inbound protocol leg
 * (Inv / Recall / FwdGetS / FwdGetX / WbAck). The home tile never
 * calls into the L1 directly; all L1<->L2 interaction is real mesh
 * traffic.
 *
 * Dirty evictions are split-phase too: the line parks in a pooled
 * writeback buffer entry while its PutM travels to the home tile, and
 * the entry is freed by the home's WbAck. A Recall / FwdGetX that
 * crosses an in-flight PutM is answered from the writeback buffer;
 * the home detects the resulting stale PutM by its directory owner
 * field and drops it (see l2_cache.hh).
 */

#ifndef ATOMSIM_CACHE_L1_CACHE_HH
#define ATOMSIM_CACHE_L1_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/mshr.hh"
#include "mem/address_map.hh"
#include "net/mesh.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace atomsim
{

class L2Tile;
struct FillResult;

/** Completion callback handed into the L1 by the core / store queue /
 * commit protocol. Fixed capacity: no heap, enforced at compile time. */
static constexpr std::size_t kCacheCallbackBytes = 40;
using CacheCallback = InplaceCallback<kCacheCallbackBytes>;

/**
 * Hook consulted on the store path. Implemented by the ATOM LogI
 * module (undo designs) and by the REDO write-combining front end.
 */
class StoreLogger
{
  public:
    virtual ~StoreLogger() = default;

    /** What kind of logging the active design performs. */
    enum class Mode
    {
        None,  //!< NON-ATOMIC: no logging
        Undo,  //!< BASE / ATOM / ATOM-OPT: log first write per line
        Redo,  //!< REDO: log every store
    };

    virtual Mode mode() const = 0;

    /** True while @p core executes inside an atomic region. */
    virtual bool inAtomic(CoreId core) const = 0;

    /**
     * Undo designs: the first write to @p addr in this atomic update.
     * @p old_value is the pre-store line. Call @p done once the store
     * may modify the cache (Invariant 1); the L1 then sets the log bit.
     */
    virtual void onFirstWrite(CoreId core, Addr addr,
                              const Line &old_value,
                              CacheCallback done) = 0;

    /**
     * REDO: every store produces a redo entry. @p pre is the line's
     * current (pre-store) content and @p off / @p bytes / @p size the
     * store's payload within it: the logger owns the entry's data from
     * this moment (pre-image plus merged store bytes) instead of
     * re-reading the cache hierarchy at drain time -- a drain-time
     * read races in-transit copies (an L1 writeback or an L2 eviction
     * recall holds the only fresh bytes in a mesh packet or a
     * split-phase round, and every array then serves a stale copy).
     * Call @p done once the entry is accepted (possibly stalling on a
     * full combine buffer). @p bytes is only valid during the call.
     */
    virtual void onStore(CoreId core, Addr addr, const Line &pre,
                         std::uint32_t off, const std::uint8_t *bytes,
                         std::uint32_t size, CacheCallback done) = 0;
};

/** One private L1 data cache. */
class L1Cache : public MeshSink
{
  public:
    using Callback = CacheCallback;

    L1Cache(CoreId core, EventQueue &eq, const SystemConfig &cfg,
            Mesh &mesh, const AddressMap &amap,
            std::vector<std::unique_ptr<L2Tile>> &tiles, StatSet &stats);
    ~L1Cache();

    CoreId coreId() const { return _core; }

    /** Install the design's store logger (nullptr for NON-ATOMIC). */
    void setStoreLogger(StoreLogger *logger) { _logger = logger; }

    // --- Core-facing operations ---------------------------------------

    /**
     * Load from the line of @p addr; @p done runs when data is
     * available to the core.
     */
    void load(Addr addr, Callback done);

    /**
     * Store @p size bytes (@p bytes) at @p addr (single line only).
     * Runs the full protocol: obtain write permission, consult the
     * store logger, apply, set dirty/log bits, then @p done.
     */
    void store(Addr addr, const std::uint8_t *bytes, std::uint32_t size,
               Callback done);

    /**
     * Durable flush of the line of @p addr (clwb-like): pushes the
     * dirty copy toward NVM and acks when durable. Clears the log bit
     * and the dirty bit; the line stays valid.
     */
    void flush(Addr addr, Callback done);

    // --- Mesh delivery (fills, acks, inbound protocol legs) -----------

    void meshDeliver(Packet &pkt) override;

    /** Power failure: everything volatile vanishes. */
    void powerFail();

    // --- Introspection -------------------------------------------------
    const CacheArray &array() const { return _array; }
    CacheArray &arrayForTest() { return _array; }
    std::size_t outstandingMisses() const { return _mshrs.active(); }
    const MshrTable &mshrs() const { return _mshrs; }

    /** PendingStore slots ever allocated (pool high-water mark). */
    std::size_t storePoolAllocated() const
    {
        return _storePool.allocated();
    }

    /** PendingStore slots currently idle (pool reuse proof). */
    std::size_t storePoolFree() const { return _storePool.idle(); }

    /** Writeback-buffer entries ever allocated (pool high-water). */
    std::size_t wbPoolAllocated() const { return _wbPool.allocated(); }

    /** Writeback-buffer entries currently idle (pool reuse proof). */
    std::size_t wbPoolFree() const { return _wbPool.idle(); }

    /** PutM writebacks currently awaiting their WbAck. */
    std::size_t outstandingWritebacks() const { return _wbCount; }

  private:
    /**
     * In-flight state of one store, pooled and reused: the payload
     * bytes, the core's completion, and (implicitly, by being pointed
     * at from MSHR waiters / logger acks) the store's continuation.
     * Live slots are additionally chained into _storeActive so a power
     * failure can reclaim stores whose continuations died with the
     * MSHRs.
     */
    struct PendingStore
    {
        PendingStore *next = nullptr;       //!< pool free-list link
        PendingStore *activeNext = nullptr; //!< in-flight list link
        Addr addr = 0;
        std::uint32_t size = 0;
        std::array<std::uint8_t, kLineBytes> bytes{};
        Callback done;
    };

    /** One outstanding flush, parked until its FlushAck returns. */
    struct PendingFlush
    {
        PendingFlush *next = nullptr;
        Addr line = 0;
        Callback done;
    };

    /**
     * One dirty eviction in flight: the line's data parks here while
     * the PutM travels to the home tile, and the entry frees when the
     * WbAck returns. A Recall / FwdGetX that crosses the PutM in the
     * mesh is answered from this buffer (the home then drops the stale
     * PutM by its directory owner check).
     */
    struct PendingPutM
    {
        PendingPutM *next = nullptr;
        Addr line = 0;
        Line data{};
    };

    void after(Cycles delay, EventQueue::Callback fn);

    // --- Inbound protocol legs (mesh-delivered) -----------------------

    /** Home invalidates our (shared) copy; ack back home. */
    void handleInv(Addr line);

    /** Home recalls the line (inclusion eviction / flush): surrender
     * our copy -- from the array or the writeback buffer -- and reply
     * with a RecallAck carrying whatever we had. */
    void handleRecall(Addr line);

    /** Forwarded read: downgrade to Shared and ship our copy home
     * (FwdAckS); the home grants @p requester. */
    void handleFwdGetS(CoreId requester, Addr line);

    /** Forwarded write: once unpinned, surrender the line home
     * (FwdAckX); the home grants @p requester Modified. */
    void handleFwdGetX(CoreId requester, Addr line);

    /** WbAck from the home: free the oldest matching writeback-buffer
     * entry. */
    void wbAcked(Addr line);

    /**
     * Run @p action once the line is not pinned by an outstanding log
     * request (immediately if unpinned). A real cache controller NACKs
     * or defers incoming forwards/invalidations for a line with an
     * active store-logging transaction; stealing the line mid-wait
     * would force a refetch + duplicate log entry on every theft --
     * on contended lines that convoy livelocks the update.
     */
    void whenUnpinned(Addr addr, Callback action);

    /** M/E -> I; returns the data (and dirtiness) if present in the
     * array, else the newest writeback-buffer copy, else nothing. */
    std::optional<std::pair<Line, bool>> surrenderLine(Addr addr);

    /** Any -> I (invalidation; no data transfer). */
    void invalidateLine(Addr addr);

    std::uint32_t homeTileOf(Addr addr) const;
    std::uint32_t myNode() const;

    /** Begin a miss (GetS/GetX/Upgrade); merges into an existing MSHR. */
    void startMiss(Addr addr, bool exclusive,
                   MshrTable::Continuation retry);

    /** Fill arrived: install (evicting as needed) and wake waiters. */
    void fillArrived(Addr addr, const FillResult &result);

    /** FlushAck arrived: resume the oldest flush of this line. */
    void flushAcked(Addr line);

    /** Evict a victim frame to make room (dirty -> PutM). */
    void evictFrame(CacheLineState *frame);

    /** Store protocol once the L1 access latency has elapsed; re-run
     * on retry after a miss fill or a lost race. */
    void finishStore(PendingStore *ps);

    /** Log ack for @p ps's line: unpin, apply, release deferred
     * coherence actions. */
    void storeLogged(PendingStore *ps);

    /** Write the bytes, set dirty/log bits, complete and recycle. */
    void applyStore(PendingStore *ps, bool set_log_bit);

    PendingStore *acquireStore();
    void releaseStore(PendingStore *ps);
    PendingFlush *acquireFlush();
    void releaseFlush(PendingFlush *pf);

    /** Newest in-flight writeback of @p line (nullptr if none). */
    PendingPutM *findWb(Addr line);

    CoreId _core;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    Mesh &_mesh;
    const AddressMap &_amap;
    std::vector<std::unique_ptr<L2Tile>> &_tiles;

    CacheArray _array;
    MshrTable _mshrs;
    StoreLogger *_logger = nullptr;
    /** Deferred coherence actions on pinned lines (see whenUnpinned). */
    std::unordered_map<Addr, std::vector<Callback>> _unpinWaiters;

    FreeListPool<PendingStore> _storePool;
    PendingStore *_storeActive = nullptr;  //!< in-flight stores
    /** Bumped on powerFail: continuations holding a PendingStore
     * pointer carry their epoch and go inert when it goes stale, so a
     * queue pumped after a crash can never touch a recycled slot
     * (same pattern as the memory controller's completion epoch). */
    std::uint64_t _epoch = 0;
    FreeListPool<PendingFlush> _flushPool;
    PendingFlush *_flushHead = nullptr;  //!< outstanding flushes (FIFO)
    PendingFlush *_flushTail = nullptr;
    FreeListPool<PendingPutM> _wbPool;
    PendingPutM *_wbHead = nullptr;  //!< in-flight writebacks (FIFO)
    PendingPutM *_wbTail = nullptr;
    std::size_t _wbCount = 0;

    Counter &_statLoads;
    Counter &_statStores;
    Counter &_statLoadMisses;
    Counter &_statStoreMisses;
    Counter &_statWritebacks;
    Counter &_statLogRequests;
    Counter &_statWbHits;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_L1_CACHE_HH
