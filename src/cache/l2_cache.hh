/**
 * @file
 * One tile of the banked, shared, inclusive L2 cache.
 *
 * Each tile is the home node of the lines that hash to it and runs the
 * directory protocol for them: GetS / GetX / Upgrade requests from L1s,
 * PutM writebacks, durable flushes to the memory controller, and
 * recalls on inclusion-victim eviction.
 *
 * Every L1<->L2 protocol leg is a *split-phase mesh transaction*: the
 * tile never calls into an L1 (and vice versa); it sends a typed
 * packet (Recall / Inv / FwdGetS / FwdGetX / WbAck) and the L1 answers
 * with another (RecallAck / InvAck / FwdAckS / FwdAckX / PutM).
 * Per-line busy serialization at the directory still makes the
 * protocol race-free: a line with an in-flight recall/invalidation
 * round or forward keeps its busy bit until the acks return.
 *
 * Ordering invariant: *every* grant (fill response) and *every*
 * revocation (Inv / Recall / FwdGet*) of a line travels on the single
 * home-tile -> L1 node pair, whose point-to-point FIFO the mesh
 * guarantees (per-link and ejection-port reservations). A revocation
 * therefore can never overtake an in-flight grant -- the reason
 * forwarded data returns home before the requester is granted,
 * rather than going owner -> requester directly.
 *
 * Fan-in rounds (a victim's recall + sharer invalidations, a flush's
 * owner recall, a GetX's invalidation set) are tracked in pooled Round
 * records keyed by line; a fill whose victim is mid-recall parks in a
 * pooled PendingFill -- no closures, no allocation in steady state.
 *
 * Writeback races resolve by ownership: a PutM that arrives after the
 * home recalled or forwarded the line away (the L1 answered from its
 * writeback buffer) finds dir.owner != sender and is dropped; every
 * PutM is acknowledged with a WbAck so the L1 can free the buffer
 * slot.
 */

#ifndef ATOMSIM_CACHE_L2_CACHE_HH
#define ATOMSIM_CACHE_L2_CACHE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "mem/packet.hh"
#include "mem/phys_mem.hh"
#include "net/mesh.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace atomsim
{

class L1Cache;

/**
 * Interface the ATOM LogM implements for the source-logging
 * optimization (Section III-D): log a read-exclusive fill at the
 * memory controller, using the just-read line as the undo value.
 */
class SourceLogger
{
  public:
    virtual ~SourceLogger() = default;

    /**
     * Attempt to source-log the fill of @p addr for @p core.
     * @retval true the entry was logged; return the data with the log
     *              bit set (DataLogged).
     */
    virtual bool sourceLogFill(CoreId core, Addr addr,
                               const Line &old_value) = 0;
};

/**
 * Infinite victim cache used by the REDO design (Doshi et al.): dirty
 * L2 evictions park here instead of spilling to NVM, because in-place
 * NVM data must not be overwritten before the backend applies the log.
 */
class VictimCache
{
  public:
    void
    put(Addr line_addr, const Line &data)
    {
        _lines[lineAlign(line_addr)] = data;
    }

    const Line *
    find(Addr line_addr) const
    {
        auto it = _lines.find(lineAlign(line_addr));
        return it == _lines.end() ? nullptr : &it->second;
    }

    std::size_t size() const { return _lines.size(); }
    void clear() { _lines.clear(); }

  private:
    std::unordered_map<Addr, Line> _lines;
};

/** Result of a fill request, delivered back to the requesting L1. */
struct FillResult
{
    Line data;
    CoherenceState grant;
    bool logged;  //!< log bit pre-set by source logging
};

/** One L2 tile (home node + directory + data bank). */
class L2Tile : public MeshSink
{
  public:
    /** Durable-write completion; same capacity as a packet's rider so
     * it moves through the mesh without re-wrapping. */
    using AckCallback = MeshCallback;

    L2Tile(std::uint32_t tile_id, EventQueue &eq, const SystemConfig &cfg,
           Mesh &mesh, const AddressMap &amap, StatSet &stats);
    ~L2Tile();

    /** Wire the L1s (for recalls / forwards / invalidations). */
    void setL1s(std::vector<L1Cache *> l1s) { _l1s = std::move(l1s); }

    /** Wire the per-MC mesh ports (fill reads, durable writes). */
    void
    setMcPorts(std::vector<MeshSink *> ports)
    {
        _mcPorts = std::move(ports);
    }

    /** Wire the shared victim cache (REDO only; else nullptr). */
    void setVictimCache(VictimCache *vc) { _victims = vc; }

    std::uint32_t tileId() const { return _tileId; }

    // --- Mesh delivery -------------------------------------------------

    void meshDeliver(Packet &pkt) override;

    // --- Handlers invoked at this tile (already mesh-delivered) -------

    /** Load miss from @p core. Responds with a typed Data packet. */
    void handleGetS(CoreId core, Addr addr);

    /**
     * Store miss from @p core. @p in_atomic enables source logging at
     * the memory controller when the fill reaches it.
     */
    void handleGetX(CoreId core, Addr addr, bool in_atomic);

    /** S->M upgrade; may morph into a data grant if state moved on. */
    void handleUpgrade(CoreId core, Addr addr, bool in_atomic);

    /**
     * Dirty writeback from an L1 (split-phase): apply if the sender is
     * still the tracked owner, drop as stale otherwise (a recall or
     * forward crossed it and already took the data), and WbAck the
     * sender either way.
     */
    void handlePutM(CoreId core, Addr addr, const Line &data);

    /**
     * Durable flush (clwb-like). @p has_data carries the L1's dirty
     * copy if it had one. Sends a FlushAck to @p core's L1 once the
     * line is durable in NVM.
     */
    void handleFlush(CoreId core, Addr addr, bool has_data,
                     const Line &data);

    /** Power failure: all cached state vanishes. */
    void powerFail();

    /** Tests: direct visibility into the tile. */
    const CacheArray &array() const { return _array; }
    Directory &directory() { return _dir; }

    /** Round records ever allocated (pool high-water). */
    std::size_t roundPoolAllocated() const { return _roundPool.allocated(); }
    /** Round records currently idle (pool reuse proof). */
    std::size_t roundPoolFree() const { return _roundPool.idle(); }
    /** Parked fills ever allocated (pool high-water). */
    std::size_t fillPoolAllocated() const { return _fillPool.allocated(); }
    /** Parked fills currently idle (pool reuse proof). */
    std::size_t fillPoolFree() const { return _fillPool.idle(); }

  private:
    /** Capacity of a round-completion continuation: the flush path's
     * this + core + line + flags + a 64-byte line. */
    static constexpr std::size_t kRoundCbBytes = 104;

    /**
     * Pooled fan-in record for one recall/invalidation round on one
     * line (the line is busy at the directory for the whole round, so
     * at most one round per line exists). Collects the recalled copy
     * and runs the continuation when the last ack lands.
     */
    struct Round
    {
        Round *next = nullptr;
        Addr line = 0;
        std::uint32_t remaining = 0;
        bool gotData = false;   //!< a RecallAck carried a copy
        bool gotDirty = false;  //!< ... and it was dirty
        Line data{};
        InplaceFunction<void(Round &), kRoundCbBytes> done;
    };

    using RoundCallback = InplaceFunction<void(Round &), kRoundCbBytes>;

    /**
     * A memory fill whose victim frame needs a split-phase eviction
     * (or whose set is transiently out of unpinned frames): parked
     * here until the frame is free to install into.
     */
    struct PendingFill
    {
        PendingFill *next = nullptr;        //!< pool / stall-list link
        PendingFill *activeNext = nullptr;  //!< in-flight list link
        CoreId core = 0;
        Addr line = 0;
        bool logged = false;
        bool exclusive = false;
        Line data{};
    };

    void after(Cycles delay, EventQueue::Callback fn);

    /** Respond to a requester core through the mesh. */
    void respondFill(CoreId core, Addr line, MsgType type,
                     const FillResult &result);

    /** FlushAck back to the flushing core's L1. */
    void sendFlushAck(CoreId core, Addr line);

    /** WbAck back to a PutM sender's L1. */
    void sendWbAck(CoreId core, Addr line);

    /** Read the line from NVM (or victim cache); the fill resumes in
     * onMemFill(). */
    void missToMemory(CoreId core, Addr addr, bool exclusive,
                      bool in_atomic);

    /** Memory fill arrived: find (or free up) a frame, install, update
     * the directory, grant. May park the fill behind a split-phase
     * victim eviction. */
    void onMemFill(CoreId core, Addr addr, const Line &data, bool logged,
                   bool exclusive);

    /** Install the fill into @p frame, grant, and release the line. */
    void finishFill(CacheLineState *frame, CoreId core, Addr line,
                    const Line &data, bool logged, bool exclusive);

    // Home-side completions of the split-phase forward legs.
    void onFwdAckS(const Packet &pkt);
    void onFwdAckX(const Packet &pkt);

    /**
     * Start a recall/invalidation round on @p line: a Recall to
     * @p owner (if any) plus an Inv to every core in @p sharers.
     * @p done runs when the last ack lands -- immediately, with an
     * empty scratch Round, if there is nothing to send.
     */
    void startRound(Addr line, CoreId owner, const SharerSet &sharers,
                    RoundCallback done);

    /** An InvAck / RecallAck landed: advance the line's round. */
    void roundAck(Addr line, bool has_data, bool dirty,
                  const Line &data);

    /**
     * Split-phase eviction of @p frame's current occupant; installs
     * @p pf's fill and completes it when the victim's round finishes.
     */
    void evictThen(CacheLineState *frame, PendingFill *pf);

    /** Re-dispatch fills that were parked waiting for a frame. */
    void retryStalledFills();

    /** Invalidate every sharer in @p mask, granting to @p requester
     * once all acks return (immediately if the mask is empty). */
    void invalidateSharers(CoreId requester, Addr line,
                           const SharerSet &mask);

    /** Grant Modified to @p requester from the L2 copy and release. */
    void grantExclusive(CoreId requester, Addr line);

    /** The flush decision once any owner recall completed. */
    void finishFlush(CoreId core, Addr line, bool has_data,
                     const Line &data, bool owner_recalled);

    /** Issue a durable data write for @p addr to its MC. */
    void writeThrough(Addr addr, const Line &data, WriteKind kind,
                      AckCallback on_durable);

    PendingFill *acquireFill();
    void releaseFill(PendingFill *pf);

    std::uint32_t _tileId;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    Mesh &_mesh;
    const AddressMap &_amap;
    StatSet &_stats;

    CacheArray _array;
    Directory _dir;
    std::vector<L1Cache *> _l1s;
    std::vector<MeshSink *> _mcPorts;
    VictimCache *_victims = nullptr;

    FreeListPool<Round> _roundPool;
    Round *_roundActive = nullptr;
    FreeListPool<PendingFill> _fillPool;
    PendingFill *_fillActive = nullptr;  //!< every live PendingFill
    PendingFill *_stallHead = nullptr;   //!< fills waiting for a frame
    PendingFill *_stallTail = nullptr;

    Counter &_statHits;
    Counter &_statMisses;
    Counter &_statRecalls;
    Counter &_statEvictions;
    Counter &_statVictimHits;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_L2_CACHE_HH
