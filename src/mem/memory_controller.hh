/**
 * @file
 * NVM memory controller with kind-tagged requests and an ATOM write gate.
 *
 * Each controller owns one or two NvmChannels and per-channel read/write
 * queues with a read-priority arbiter (writes drain when the write queue
 * crosses a high-water mark or no reads are pending). The durable image
 * of memory is updated when a write completes at the device.
 *
 * When SystemConfig::hybridMode != NvmOnly the controller additionally
 * owns a DRAM tier (mem/dram_cache.hh + mem/dram_device.hh) consulted
 * before the NVM channel: reads probe the cache (hit = DRAM latency,
 * miss = NVM read + demand fill, dirty victims written back through
 * the ordinary gated write queue), DataWb writes are absorbed at DRAM
 * latency, and every durability-bearing write kind stays write-through
 * to NVM. An app-direct address window (setUncacheableWindow) bypasses
 * the tier entirely. The DRAM contents are volatile: they never reach
 * the recovery image, which holds only bytes the NVM device completed
 * before a power failure.
 *
 * The ATOM log manager (atom/logm.hh) attaches as the WriteGate
 * consulted when a *data* write is scheduled out of the controller: a
 * locked line (its address sits in a not-yet-persisted record header)
 * blocks until LogM persists the header (Section III-C / IV-C of the
 * paper). Source logging of read-exclusive fills (Section III-D)
 * happens in the controller's mesh port (mem/mc_port.hh).
 */

#ifndef ATOMSIM_MEM_MEMORY_CONTROLLER_HH
#define ATOMSIM_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dram_cache.hh"
#include "mem/dram_device.hh"
#include "mem/nvm_channel.hh"
#include "mem/phys_mem.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Why a read was issued (stats + channel steering). */
enum class ReadKind : std::uint8_t
{
    Demand,   //!< cache fill
    LogRead,  //!< REDO backend reading log entries
};

/** Why a write was issued (stats, gating and channel steering). */
enum class WriteKind : std::uint8_t
{
    DataWb,       //!< L2 eviction writeback
    Flush,        //!< commit-time durable flush (clwb-like)
    LogData,      //!< ATOM undo-log entry data line
    LogHeader,    //!< ATOM record header line
    CriticalRegs, //!< ADR flush of LogM critical structures
    RedoLog,      //!< REDO log-area write
    RedoApply,    //!< REDO backend in-place update
    FwdMap,       //!< SSD-tier forwarding-map entry (data channel,
                  //!< never gated, never intercepted by the destage
                  //!< engine -- it IS the destage engine's traffic)
};

/**
 * One unrecoverable media read failure: the bounded retries of the
 * media-error model (SystemConfig::mediaErrorPer64k) ran out. The
 * controller surfaces these as structured records -- the read still
 * delivers the stored bytes (the model reports the uncorrectable
 * error instead of silently corrupting data), so a consumer decides
 * what a hard fault means for its run.
 */
struct MediaFaultRecord
{
    McId mc = 0;
    Addr addr = 0;
    Tick tick = 0;
    /** Device attempts consumed (1 initial + mediaRetryLimit). */
    std::uint32_t attempts = 0;
    ReadKind kind = ReadKind::Demand;
};

/**
 * Interface the ATOM LogM implements to enforce log -> data ordering.
 */
class WriteGate
{
  public:
    /** Continuation resuming a gated write; sized for the controller's
     * pooled-request capture, so consulting the gate allocates
     * nothing. */
    using UnlockCallback = InplaceCallback<48>;

    virtual ~WriteGate() = default;

    /**
     * Ask permission to write @p line_addr durably.
     *
     * @retval true  the line is not locked; write may proceed now.
     * @retval false the line is locked; @p on_unlock will be invoked
     *               once the covering record header has persisted.
     */
    virtual bool tryAcquire(Addr line_addr, UnlockCallback on_unlock) = 0;
};

class DestageEngine;

/** One NVM memory controller. */
class MemoryController
{
  public:
    /**
     * Fixed-capacity (non-allocating) completions. WriteCallback's
     * capacity matches a mesh packet's rider (mem/packet.hh) so acks
     * arriving by packet move straight into the write queue without
     * re-wrapping.
     */
    using ReadCallback = InplaceFunction<void(const Line &), 96>;
    using WriteCallback = InplaceCallback<64>;

    MemoryController(McId id, EventQueue &eq, const SystemConfig &cfg,
                     DataImage &nvm, StatSet &stats);

    McId id() const { return _id; }

    /**
     * Read one line from NVM.
     *
     * Forwards from a pending queued write to the same line if present
     * (the controller observes its own write queue).
     */
    void readLine(Addr addr, ReadKind kind, ReadCallback &&cb);

    /**
     * Write one line durably. @p cb fires when the device write
     * completes (the line is then recoverable after power failure).
     *
     * Data writes (DataWb / Flush / RedoApply) pass through the
     * installed WriteGate; log writes never do.
     */
    void writeLine(Addr addr, const Line &data, WriteKind kind,
                   WriteCallback &&cb);

    /**
     * Flush-ordering helper: invoke @p cb once any pending write to
     * @p addr has persisted (immediately if none is pending).
     */
    void whenLineDurable(Addr addr, WriteCallback &&cb);

    /** Install the ATOM write gate (nullptr to remove). */
    void setWriteGate(WriteGate *gate) { _gate = gate; }

    /**
     * Install the flash-tier destage engine (nullptr to remove). When
     * set, the engine sees every NVM-path access first: reads of pages
     * whose authoritative bytes moved to flash stall through the SSD
     * read path, and writes to pages mid-destage cancel or park per
     * the engine's state machine (mem/ssd_device.hh).
     */
    void setDestageEngine(DestageEngine *eng) { _destage = eng; }

    /** The installed destage engine (nullptr without a flash tier). */
    DestageEngine *destageEngine() const { return _destage; }

    /**
     * True if any line of the page at @p page_base has an accepted
     * but not-yet-durable write. The destage engine defers snapshots
     * of such pages: the DataImage still holds pre-write bytes until
     * device completion, so a snapshot taken now would destage stale
     * data and the racing write would then be silently lost.
     */
    bool hasPendingWriteInPage(Addr page_base) const;

    /**
     * App-direct partitioning: addresses in [base, end) bypass the
     * DRAM cache and talk straight to NVM (no-op without a DRAM
     * tier). The System derives the window from the AddressMap
     * (AddressMap::appDirectBase/appDirectEnd).
     */
    void
    setUncacheableWindow(Addr base, Addr end)
    {
        _directBase = base;
        _directEnd = end;
    }

    /** The DRAM tier (nullptr when hybridMode == NvmOnly). */
    DramCache *dramCache() { return _dram.get(); }

    /** The controller's durable effect of a power failure. Writes that
     * have not completed at the device are lost, matching Section
     * IV-D -- except under SystemConfig::tornWrites, where each write
     * in flight at the device commits a seeded word-aligned prefix
     * (NVM's 8-byte atomicity guarantee, nothing more). The queued
     * work itself dies with the event queue (System::powerFail). */
    void powerFail();

    /** Uncorrectable media read failures recorded so far (survives
     * power failure: the fault report is host-visible state). */
    const std::vector<MediaFaultRecord> &mediaFaults() const
    {
        return _mediaFaults;
    }

    /** Writes accepted and not yet completed (a combined write
     * counts once). */
    std::size_t pendingWrites() const { return _pendingWrites; }

    /** Aggregate channel-busy cycles (bandwidth utilization). */
    std::uint64_t channelBusyCycles() const;

    const SystemConfig &config() const { return _cfg; }

  private:
    /** The destage engine replays parked operations through the
     * private readNvm/writeNvm entry points: the parked op was already
     * counted and DRAM-routed when it first arrived, so re-entering
     * through the public API would double-count it. */
    friend class DestageEngine;

    /** Pooled write-ack node: an extra durability ack beyond the
     * first accumulated on a queued write by combining, or a
     * whenLineDurable() waiter. Both queue in registration order. */
    struct WcbNode
    {
        WcbNode *next = nullptr;
        WriteCallback cb;
    };

    using WcbFifo = IntrusiveFifo<WcbNode>;

    /**
     * One queued request: a pooled intrusive node. The queues chain
     * requests through the embedded `next` pointer and the gate /
     * device-completion paths carry the raw node, so the controller's
     * steady state performs no queue-churn allocations.
     */
    struct Request
    {
        Request *next = nullptr;
        bool isWrite = false;
        Addr addr = 0;
        Line data{};
        ReadKind rkind = ReadKind::Demand;
        WriteKind wkind = WriteKind::DataWb;
        ReadCallback rcb;
        WriteCallback wcb;  //!< first durability ack (inline)
        WcbFifo extra;      //!< acks combined in after the first
        /** Acceptance order of the carried data (see PendingWrite). */
        std::uint64_t acceptSeq = 0;
    };

    struct ChannelState
    {
        IntrusiveFifo<Request> readQ;
        IntrusiveFifo<Request> writeQ;
        /** Requests on writeQ (the drain high-water mark reads it). */
        std::size_t writeCount = 0;
        /** Recurring scheduler event; at most one kick pending per
         * channel (kickEvent->scheduled() is the guard). */
        std::unique_ptr<TickEvent> kickEvent;
    };

    /**
     * In-flight state of one DRAM-tier operation: a hit read's data
     * snapshot + completion, a miss's parked fill target, or an
     * absorbed write's completion ack. Pooled.
     */
    struct DramOp
    {
        DramOp *next = nullptr;  //!< pool free-list link
        Addr addr = 0;
        Line data{};
        ReadCallback rcb;
        WriteCallback wcb;
    };

    /** Channel a request of this kind steers to. */
    std::uint32_t channelFor(bool is_log_traffic) const;

    static bool isLogTraffic(WriteKind kind);
    static bool isGated(WriteKind kind);

    /** True when the DRAM tier fronts @p addr (outside the app-direct
     * window). Only meaningful with a DRAM tier configured. */
    bool
    dramCacheable(Addr addr) const
    {
        return !inAddrWindow(addr, _directBase, _directEnd);
    }

    /** Scrub callbacks and return the node. */
    void releaseDramOp(DramOp *op);

    /** Write a displaced dirty DRAM victim back to NVM (gated). */
    void writeBackVictim(const DramCache::Victim &victim);

    /**
     * Enqueue a read on the NVM channel path (the pre-hybrid
     * readLine body): forwarding from in-flight writes happens at
     * issue time.
     */
    void readNvm(Addr addr, ReadKind kind, ReadCallback &&cb);

    /**
     * Enqueue a write on the NVM channel path (the pre-hybrid
     * writeLine body): write combining, gate consultation at issue,
     * durable-image update and ack at device completion.
     */
    void writeNvm(Addr addr, const Line &data, WriteKind kind,
                  WriteCallback &&cb);

    Request *acquireReq();
    /** Scrub callbacks / overflow chain and return the node. */
    void releaseReq(Request *r);
    void addWcb(Request *r, WriteCallback &&cb);

    /** Fire a detached ack chain in order, returning each node to
     * the pool before its ack runs (an ack may enqueue new work). */
    void fireWcbs(WcbFifo chain);

    void kick(std::uint32_t ch);
    void scheduleKick(std::uint32_t ch, Tick when);
    void issueRead(std::uint32_t ch, Request *req);
    void issueWrite(std::uint32_t ch, Request *req);

    McId _id;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    DataImage &_nvm;
    std::string _statName;

    std::vector<NvmChannel> _channels;
    std::vector<ChannelState> _chState;
    FreeListPool<Request> _reqPool;
    FreeListPool<WcbNode> _wcbPool;
    WriteGate *_gate = nullptr;
    DestageEngine *_destage = nullptr;

    // --- Hybrid DRAM tier (null when hybridMode == NvmOnly) ----------
    std::unique_ptr<DramCache> _dram;
    std::unique_ptr<DramDevice> _dramDev;
    FreeListPool<DramOp> _dramOpPool;
    Addr _directBase = 0;  //!< app-direct (uncacheable) window
    Addr _directEnd = 0;

    /** Writes accepted but not yet durable, by line address: the
     * outstanding count plus the *newest* accepted data, so reads can
     * forward even while a write is on the device (popped from the
     * queue but not yet persisted -- a ~360-cycle window a chasing
     * demand read can land in). Every queued write holds an entry, so
     * the map doubles as writeNvm()'s combine filter: a line without
     * one has nothing queued to combine with.
     *
     * committedSeq orders same-line commits into the durable image by
     * acceptance: a write gate park can re-queue a blocked write ahead
     * of a later-accepted one (several writes to a locked line each
     * park in their own unlock continuation and are replayed through
     * stacked push_fronts, newest first), so the device can drain a
     * stale writeback *after* a newer commit flush of the same line.
     * Real controllers never reorder same-address writes; the stale
     * write still occupies its device slot, but its image update is
     * suppressed. Without this, the stale writeback silently clobbers
     * committed bytes whose undo record truncation just discarded --
     * an unrecoverable tear (the seeds-62/63/64 torn-payload bug). */
    struct PendingWrite
    {
        std::uint32_t count = 0;
        std::uint64_t committedSeq = 0;
        Line data{};
    };
    LineMap<PendingWrite> _inflightWrites;
    std::uint64_t _acceptSeq = 0;  //!< write-acceptance order stamp
    /** Writes issued to the device but not yet completed, tracked
     * only under cfg.tornWrites: these are the writes a power
     * failure tears at a word boundary instead of discarding whole
     * (the posted completion lambdas alone hide them -- a power
     * failure drops them before they can tell us what was in
     * flight). */
    std::vector<Request *> _deviceWrites;
    /** Uncorrectable media read failures (hard-fail fault report). */
    std::vector<MediaFaultRecord> _mediaFaults;
    /** whenLineDurable() waiters, by line; fired once the line's
     * last outstanding write persists. */
    LineMap<WcbFifo> _durWaiters;

    std::size_t _pendingWrites = 0;

    Counter &_statReads;
    Counter &_statLogReads;
    Counter &_statWrites;
    Counter &_statLogWrites;
    Counter &_statGateBlocks;
    Counter &_statDramCleanses;
    Counter &_statMediaRetries;
    Counter &_statMediaFail;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_MEMORY_CONTROLLER_HH
