/**
 * @file
 * Flash/SSD third tier: NVMe-style queue pairs over a channel/die
 * timing model, plus the destage engine that migrates cold pages from
 * NVM to flash at ATOM log truncation.
 *
 * One SsdDevice per memory controller (SystemConfig::ssdTier), fronted
 * by per-channel submission/completion queue pairs — FIFOs of pooled
 * intrusive command nodes, each pair bounded by the queue depth, the
 * same FreeListPool / IntrusiveFifo idiom as the controllers and the
 * DRAM device. The
 * host side (the destage engine) submits page commands and rings a
 * doorbell; a poll-mode loop on the owning controller's EventQueue
 * fetches submissions, dispatches them to the channel/die timing model
 * (die tR/tPROG occupancy, channel bus transfer) and reaps completions
 * at poll ticks.
 *
 * The DestageEngine sits between LogM truncation and the device:
 *
 *  - cold log segments (buckets the log manager moved past) and cold
 *    data pages (pages of truncated updates beyond a watermark) are
 *    snapshotted from NVM and programmed to flash;
 *  - once the program completes, a 16-byte forwarding entry is written
 *    *durably* into an NVM-resident map region (AddressMap::ssdMapPage)
 *    through the ordinary controller write path; only after the entry
 *    is durable is the NVM page surrendered (scrubbed with a poison
 *    pattern — any path that wrongly reads NVM for a forwarded page
 *    surfaces as corruption instead of silently passing);
 *  - reads and writes of a forwarded page stall through the SSD read
 *    path: the engine parks them, promotes the page (flash read, NVM
 *    restore, durable entry clear) and replays them in arrival order.
 *
 * Crash safety is ordering, not luck: NVM stays authoritative until
 * the forwarding entry is durable, and each entry carries a checksum
 * so a torn entry write parses as invalid (= NVM authoritative).
 * Recovery rehydrates every valid entry (fwdmap::rehydrate) before the
 * log scans run, which is what makes a flash-resident log tail
 * replayable; rehydration is idempotent across a second crash.
 */

#ifndef ATOMSIM_MEM_SSD_DEVICE_HH
#define ATOMSIM_MEM_SSD_DEVICE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "mem/phys_mem.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/**
 * Forwarding-map entry codec, shared between the destage engine and
 * recovery so both sides agree on what a durable entry means.
 *
 * An entry is 16 bytes: word 0 is the NVM page address with a valid
 * bit in bit 0 (pages are 4 KB aligned, so the bit is free); word 1
 * packs the flash page index (low 32 bits) and a checksum over both
 * (high 32 bits). NVM guarantees only 8-byte write atomicity, so a
 * power failure can tear the two words apart; the checksum makes any
 * torn combination parse as *invalid*, which the destage ordering
 * turns into "NVM is still authoritative" — always safe.
 */
namespace fwdmap
{

/** Entry checksum; never zero, so an all-zero entry is invalid. */
inline std::uint32_t
checksum(std::uint64_t w0, std::uint32_t flash_page)
{
    std::uint64_t x =
        w0 ^ (std::uint64_t(flash_page) << 1) ^ 0xA70DDE57A9E5ull;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    return std::uint32_t(x >> 32) | 1u;
}

/** Encode a (page -> flash page) mapping into the two entry words. */
inline void
encode(Addr page, std::uint32_t flash_page, std::uint64_t &w0,
       std::uint64_t &w1)
{
    w0 = page | 1;
    w1 = std::uint64_t(flash_page) |
         (std::uint64_t(checksum(page | 1, flash_page)) << 32);
}

/** Decode an entry; nullopt if invalid (unset, cleared, or torn). */
inline std::optional<std::pair<Addr, std::uint32_t>>
decode(std::uint64_t w0, std::uint64_t w1)
{
    if ((w0 & 1) == 0)
        return std::nullopt;
    const auto flash_page = std::uint32_t(w1);
    if (std::uint32_t(w1 >> 32) != checksum(w0, flash_page))
        return std::nullopt;
    return std::make_pair(Addr(w0 & ~Addr(1)), flash_page);
}

/**
 * Restore every valid forwarding entry of controller @p mc into the
 * NVM image: copy the flash page back and clear the entry. Runs
 * functionally at recovery time, *before* the log scans, so a
 * flash-resident log tail (and any forwarded data page) is back in
 * place when RecoveryManager / RedoRecovery walk the image. Clearing
 * as we go makes a crash *during* recovery harmless: a second pass
 * re-copies whatever entries were still valid — byte-idempotent.
 *
 * @return pages rehydrated
 */
std::uint32_t rehydrate(DataImage &nvm, const AddressMap &amap, McId mc,
                        const DataImage &flash);

} // namespace fwdmap

/**
 * One controller's SSD slice: queue pairs + channel/die timing + a
 * non-volatile flash DataImage (survives a power failure; the queues
 * and in-flight commands do not).
 */
class SsdDevice
{
  public:
    /** One page command: a pooled intrusive node. */
    struct Cmd
    {
        Cmd *next = nullptr;
        bool isWrite = false;
        std::uint32_t flashPage = 0;
        std::array<std::uint8_t, kPageBytes> data{};
        /** Fires at the reaping poll tick; the node is released by the
         * device right after, so consumers copy what they need out. */
        InplaceFunction<void(Cmd &), 32> done;
    };

    SsdDevice(McId id, EventQueue &eq, const SystemConfig &cfg,
              StatSet &stats);

    /** Queue pairs (one per flash channel). */
    std::uint32_t numQps() const { return _cfg.ssdChannels; }

    /** Channel (= queue pair) a flash page's commands steer to. */
    std::uint32_t qpOf(std::uint32_t flash_page) const
    {
        return flash_page % _cfg.ssdChannels;
    }

    Cmd *acquireCmd();
    void releaseCmd(Cmd *cmd);

    /**
     * Push @p cmd onto queue pair @p qp's submission queue. Fails (and
     * does NOT take ownership) when the pair's outstanding commands
     * would exceed the queue depth, the bound on both of the pair's
     * queues. Nothing executes until the doorbell rings.
     */
    bool submit(std::uint32_t qp, Cmd *cmd);

    /** Ring the submission doorbell: arms the poll loop. */
    void ringDoorbell(std::uint32_t qp);

    /** The flash image (non-volatile; recovery reads through it). */
    const DataImage &flash() const { return _flash; }

    // --- introspection (tests / benches) -----------------------------
    std::uint32_t outstanding(std::uint32_t qp) const
    {
        return _qps[qp].outstanding;
    }
    std::size_t sqDepth(std::uint32_t qp) const { return _qps[qp].sqCount; }
    std::uint32_t totalOutstanding() const;
    std::size_t poolAllocated() const { return _pool.allocated(); }
    std::size_t poolFree() const { return _pool.idle(); }
    std::uint64_t reads() const { return _reads; }
    std::uint64_t programs() const { return _programs; }

  private:
    /** One SQ/CQ pair; outstanding <= ssdQueueDepth bounds both. */
    struct Qp
    {
        IntrusiveFifo<Cmd> sq;
        IntrusiveFifo<Cmd> cq;
        std::size_t sqCount = 0;
        /** Commands submitted and not yet reaped (SQ + device + CQ). */
        std::uint32_t outstanding = 0;
    };

    void poll();
    void dispatch(std::uint32_t qp, Cmd *cmd);
    void onDeviceDone(std::uint32_t qp, Cmd *cmd);

    McId _id;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    const Cycles _xferCycles;

    DataImage _flash;  //!< non-volatile: survives a power failure
    std::vector<Qp> _qps;
    FreeListPool<Cmd> _pool;

    std::vector<Tick> _chanFree;  //!< per-channel bus free time
    std::vector<Tick> _dieFree;   //!< per-(channel,die) free time

    TickEvent _pollEvent;
    std::uint64_t _reads = 0;
    std::uint64_t _programs = 0;

    Counter &_statReads;
    Counter &_statPrograms;
    Counter &_statSqStalls;
};

/**
 * Per-controller destage engine: LogM truncation hooks on one side,
 * the controller's NVM read/write intercepts on the other, the SSD
 * queue pairs underneath.
 */
class DestageEngine
{
  public:
    /** Lifecycle of a page in the destage pipeline. */
    enum class PageState : std::uint8_t
    {
        Programming,  //!< flash program in flight; NVM authoritative
        MapWriting,   //!< program done; forwarding entry write in NVM
        Forwarded,    //!< entry durable; flash authoritative
        Promoting,    //!< flash read in flight (access to a forwarded
                      //!< page); NVM restore + entry clear follow
        Clearing,     //!< durable entry clear in flight
    };

    DestageEngine(McId id, EventQueue &eq, const SystemConfig &cfg,
                  const AddressMap &amap, MemoryController &ctrl,
                  SsdDevice &ssd, DataImage &nvm, StatSet &stats);

    // --- LogM hooks --------------------------------------------------

    /** A log bucket went cold (the AUS moved to a fresh bucket). */
    void onLogSegmentCold(Addr bucket_page);

    /**
     * An update truncated: its data pages join the cold LRU (destaged
     * beyond ssdColdPageWatermark, oldest first) and its log buckets
     * are dropped from the pipeline (freed buckets must not linger as
     * forwarded pages — recovery's sequence window already rejects
     * their stale records). @p done is the truncation completion:
     * strict fires it immediately; balanced/eventual park it until the
     * un-destaged backlog is at most ssdMaxDestageBacklog.
     */
    void onTruncate(std::vector<Addr> data_pages,
                    std::vector<Addr> log_pages, InplaceCallback<16> done);

    // --- controller intercepts (top of readNvm / writeNvm) -----------

    /**
     * @retval true the access was absorbed (parked; it replays through
     *              the controller once the page is promoted)
     * @retval false NVM is authoritative; proceed normally
     */
    bool interceptRead(Addr addr, ReadKind kind,
                       MemoryController::ReadCallback &cb);
    bool interceptWrite(Addr addr, const Line &data, WriteKind kind,
                        MemoryController::WriteCallback &cb);

    // --- introspection (tests / benches / Runner) --------------------

    /** Destages in flight (Programming + MapWriting). */
    std::uint32_t destagesInFlight() const { return _inFlight; }

    /** Un-destaged backlog the balanced/eventual policies bound. */
    std::size_t backlog() const;

    /** Pipeline state of @p page, if it is in the pipeline at all. */
    std::optional<PageState> pageState(Addr page) const;

    /** Pages currently forwarded (flash-authoritative). */
    std::uint32_t forwardedPages() const;

    /** Force a destage attempt (tests). @return started. */
    bool requestDestage(Addr page, bool is_log);

    std::uint64_t pagesDestaged() const { return _pagesDestaged; }
    std::uint64_t promotions() const { return _promotionsDone; }

  private:
    /** One parked access waiting for its page to be promoted. */
    struct ParkedOp
    {
        bool isWrite = false;
        Addr addr = 0;
        Line data{};
        ReadKind rkind = ReadKind::Demand;
        WriteKind wkind = WriteKind::DataWb;
        MemoryController::ReadCallback rcb;
        MemoryController::WriteCallback wcb;
    };

    struct PageRec
    {
        PageState state = PageState::Programming;
        bool isLog = false;
        bool cancel = false;     //!< Programming: a write landed
        bool dropOnMap = false;  //!< MapWriting: truncate wants a drop
        std::uint32_t slot = 0;
        std::uint32_t flashPage = 0;
        std::vector<ParkedOp> parked;
    };

    /** Forwarding-map slot mirror (the durable truth is in NVM). */
    struct MapSlot
    {
        Addr page = 0;
        std::uint32_t flashPage = 0;
        /** True when the entry belongs in the durable map: set when
         * the flash program completes (never before — composing a
         * line from an unprogrammed slot could persist an entry that
         * points at garbage flash), cleared when the clear issues. */
        bool mapped = false;
    };

    enum class Attempt : std::uint8_t { Started, Defer, Skip };

    Attempt tryDestage(Addr page, bool is_log);
    void onProgramDone(Addr page);
    void onMapDurable(Addr page);
    void startPromotion(Addr page);
    void onPromoteRead(Addr page, const std::uint8_t *data);
    void startClear(Addr page);
    void onClearDurable(Addr page);
    void dropLogPage(Addr page);
    void touchCold(Addr page);
    void maybeDestage();
    void drainBoundWaiters();
    void schedulePump();
    void pump();

    Addr mapLineAddr(std::uint32_t slot) const;
    Line composeMapLine(std::uint32_t line_idx) const;
    void writeMapLine(std::uint32_t slot,
                      MemoryController::WriteCallback cb);
    void scrubPage(Addr page);

    McId _id;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    const AddressMap &_amap;
    MemoryController &_ctrl;
    SsdDevice &_ssd;
    DataImage &_nvm;

    std::unordered_map<Addr, PageRec> _pages;
    std::vector<MapSlot> _slots;
    std::vector<std::uint32_t> _freeSlots;  //!< pop smallest first
    std::vector<std::uint32_t> _freeFlash;

    std::vector<Addr> _coldLru;         //!< truncate order, oldest first
    std::vector<Addr> _pendingColdLog;  //!< cold buckets awaiting destage
    std::vector<Addr> _promoteRetry;    //!< promotions that hit a full SQ
    std::deque<InplaceCallback<16>> _boundWaiters;

    std::uint32_t _inFlight = 0;
    std::uint64_t _pagesDestaged = 0;
    std::uint64_t _promotionsDone = 0;

    TickEvent _pumpEvent;

    Counter &_statPages;
    Counter &_statLogPages;
    Counter &_statPromotions;
    Counter &_statCancelled;
    Counter &_statTruncWaits;
    Counter &_statStalls;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_SSD_DEVICE_HH
