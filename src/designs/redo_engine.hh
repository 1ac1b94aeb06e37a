/**
 * @file
 * REDO: the redo-log comparator design (Doshi et al., HPCA 2016), as
 * evaluated in Section VI-D of the ATOM paper.
 *
 * Differences from ATOM, mirroring the paper's setup:
 *  - every store in an atomic region produces a log entry (vs ATOM's
 *    one entry per first-written line); a per-core buffer delays each
 *    entry two cycles, until its store has applied, then issues it;
 *  - the log holds *new* values; commit persists a commit record, after
 *    which a backend controller reads the log entries back from NVM
 *    and applies them in place, consuming read + write bandwidth;
 *  - dirty L2 evictions park in an infinite victim cache so stale
 *    in-place NVM data is never overwritten before the log applies
 *    (and reads never observe stale NVM data);
 *  - log writes are hardware-issued on stores (the paper's fairness
 *    modification).
 *
 * NVM log layout per controller: a stream of 8-line frames -- one meta
 * line describing up to 7 entries, then the 7 data lines. The meta
 * line persists only after its data lines (so recovery can trust any
 * frame whose meta parses). Commit records are meta lines with a
 * commit slot for (core, txnSeq).
 */

#ifndef ATOMSIM_DESIGNS_REDO_ENGINE_HH
#define ATOMSIM_DESIGNS_REDO_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/l2_cache.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace atomsim
{

/** Redo-log front end (StoreLogger) + backend apply controller. */
class RedoEngine : public StoreLogger
{
  public:
    RedoEngine(EventQueue &eq, const SystemConfig &cfg,
               const AddressMap &amap,
               std::vector<std::unique_ptr<MemoryController>> &mcs,
               StatSet &stats);

    // --- StoreLogger ---------------------------------------------------

    Mode mode() const override { return Mode::Redo; }
    bool inAtomic(CoreId core) const override;
    void onFirstWrite(CoreId, Addr, const Line &,
                      CacheCallback) override;
    void onStore(CoreId core, Addr addr, const Line &pre,
                 std::uint32_t off, const std::uint8_t *bytes,
                 std::uint32_t size, CacheCallback done) override;

    // --- Transaction lifecycle ------------------------------------------

    void beginTxn(CoreId core);

    /** A commit's completion, or a log write's (a [this, core]). */
    using Done = InplaceCallback<16>;

    /**
     * Commit: wait for the core's buffered entries to be written,
     * persist the commit record, then @p done. Queues the update's
     * in-place applies on the backend.
     */
    void commitTxn(CoreId core, Done done);

    /** The infinite victim cache every L2 tile parks evictions in. */
    VictimCache &victimCache() { return _victims; }

  private:
    /** One pending redo entry (newest value of a line). The data is
     * owned by the buffer from onStore time -- the line's pre-store
     * image with the store's bytes merged in -- so the drain never
     * re-reads the cache hierarchy (which races the line's in-transit
     * copies; see StoreLogger::onStore). */
    struct WcbEntry
    {
        Addr line;
        Line data;
        /** Earliest tick the entry may drain: the triggering store
         * must have applied to the cache first (drain pacing keeps
         * the engine's log-issue timing store-accurate). */
        Tick readyAt = 0;
    };

    /** Per-core front end state. */
    struct CoreState
    {
        bool active = false;
        std::uint64_t txnSeq = 0;
        std::deque<WcbEntry> wcb;
        bool draining = false;
        /** The commit waits for the buffered entries' log writes. */
        bool commitWaiting = false;
        Done commitDone;
        /** Commit slots not yet durable (one per logged controller). */
        std::size_t commitSlots = 0;
        std::uint32_t entriesInFlight = 0;
        /** Mask of the controllers this update logged at (commit
         * slots go to each so per-controller recovery streams are
         * self-contained). */
        std::uint32_t touchedMcs = 0;
        /** In-place applies staged until the commit record persists:
         * uncommitted data must never reach NVM in place. */
        std::vector<std::tuple<McId, WcbEntry, Addr>> stagedApplies;
    };

    /** Per-controller log stream + backend state. */
    struct McState
    {
        /** Stream cursor: bucket (page) + frame within the bucket.
         * Buckets are the MC-interleaved log pages, so the cursor
         * must hop bucket-to-bucket, never into a neighbour MC's
         * pages. */
        std::uint32_t bucket = 0;
        std::uint32_t frameInBucket = 0;
        /** Frame under construction. */
        Addr frameMeta = 0;
        std::uint32_t frameFill = 0;
        Line metaLine{};
        /** In-place applies queued for the backend, each with the
         * log-area address its entry was written at. */
        std::deque<std::pair<WcbEntry, Addr>> applyQueue;
        bool backendBusy = false;
    };

    void drainWcb(CoreId core);

    /** Every entry of the update is durable: persist the commit
     * slots. */
    void writeCommit(CoreId core);

    /** One commit slot persisted; the last one commits the update. */
    void commitSlotDurable(CoreId core);

    /** Append one entry/commit slot to the MC's current frame. */
    void appendToFrame(McId mc, CoreId core, Addr slot_word,
                       const Line &data, bool is_commit, Done durable);

    /** Seal + persist the current frame's meta line. */
    void sealFrame(McId mc, Done durable);

    void backendPump(McId mc);

    EventQueue &_eq;
    const SystemConfig &_cfg;
    const AddressMap &_amap;
    std::vector<std::unique_ptr<MemoryController>> &_mcs;

    std::vector<CoreState> _cores;
    std::vector<McState> _mcState;
    /** One recurring buffer drain event per core (at most one drain
     * step pending per core; see CoreState::draining). */
    std::vector<std::unique_ptr<TickEvent>> _drainEvents;
    VictimCache _victims;

    Counter &_statEntries;
    Counter &_statCommits;
    Counter &_statApplied;
};

/** Packed meta-line slot helpers (shared with recovery). */
namespace redo_format
{

constexpr std::uint32_t kMetaMagic = 0x0D0E0001u;
/** 7 slots fit a 64-byte meta line (8-byte header + 7 x 8-byte
 * slots); a frame is then 8 lines = 512 B, like an ATOM record. */
constexpr std::uint32_t kSlotsPerFrame = 7;

/** Slot word: line address | core (low 6 bits); commit flag bit 63.
 * Commit slots additionally carry the transaction's sequence number
 * and the mask of controllers it logged at, so recovery can detect a
 * commit that persisted at only a subset of controllers (such a
 * transaction is NOT committed and must not be applied anywhere). */
std::uint64_t packEntry(Addr line_addr, CoreId core);
std::uint64_t packCommit(CoreId core, std::uint64_t txn_seq,
                         std::uint32_t mc_mask);
bool isCommit(std::uint64_t word);
Addr slotAddr(std::uint64_t word);
CoreId slotCore(std::uint64_t word);
std::uint64_t commitSeq(std::uint64_t word);
std::uint32_t commitMcMask(std::uint64_t word);

} // namespace redo_format

} // namespace atomsim

#endif // ATOMSIM_DESIGNS_REDO_ENGINE_HH
