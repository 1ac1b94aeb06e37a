/**
 * @file
 * LogM: the memory-controller half of the ATOM log manager
 * (Sections III-B..III-D and IV-C of the paper).
 *
 * LogM owns log allocation (buckets, records), writes log entries to
 * the NVM log area, and enforces the log -> data ordering invariant by
 * acting as the controller's WriteGate: a data write whose address sits
 * in a not-yet-persisted record header is blocked, the header persist
 * is expedited, and the write proceeds once it completes ("locking" /
 * "unlocking" in the paper's terms).
 *
 * The design (cfg.design) picks one of three operating modes:
 *  - BASE: the ack fires when the entry is durable (header persisted);
 *    records hold a single entry (2 NVM writes per entry).
 *  - ATOM (posted): the ack fires immediately after the lock is taken;
 *    persistence happens in the background.
 *  - ATOM-OPT adds sourceLogFill for read-exclusive fills.
 *
 * Each record lives in one record-header register, a node of the
 * LogM's pool; the record's data and header write completions carry
 * it, so no completion searches for its record. LogWrite messages
 * reach postLogEntry through the controller's mesh port (McPort),
 * which also sends the LogAck.
 */

#ifndef ATOMSIM_ATOM_LOGM_HH
#define ATOMSIM_ATOM_LOGM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "atom/aus.hh"
#include "atom/bucket_table.hh"
#include "cache/l2_cache.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "os/log_space.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace atomsim
{

/** The per-memory-controller ATOM log manager. */
class LogM : public WriteGate
{
  public:
    /** @param aus the AUS slots, which map a core to its update */
    LogM(McId mc, EventQueue &eq, const SystemConfig &cfg,
         const AddressMap &amap, MemoryController &ctrl, LogSpace &os,
         StatSet &stats, const AusPool &aus);

    // --- Atomic update lifecycle --------------------------------------

    /** Arm AUS @p aus for a new atomic update. */
    void beginUpdate(std::uint32_t aus);

    /**
     * Truncate AUS @p aus (Atomic_End): waits for this update's
     * outstanding log writes to quiesce, then clears the bucket bit
     * vector (single-cycle register operation) and frees the buckets.
     */
    void truncate(std::uint32_t aus, InplaceCallback<16> done);

    // --- Logging --------------------------------------------------------

    /**
     * Append an undo entry (old value of @p line_addr) to @p aus's
     * current record. Under ATOM and ATOM-OPT (posted log writes)
     * @p ack fires once the lock is taken; under BASE it fires when
     * the entry is durable.
     */
    void postLogEntry(std::uint32_t aus, Addr line_addr,
                      const Line &old_value, LogAckCallback ack);

    /**
     * Source logging (ATOM-OPT, Section III-D): log a read-exclusive
     * fill of @p addr for @p core, using the just-read line as the
     * undo value.
     * @retval true the entry was logged; the fill returns with its log
     *              bit set (DataLogged)
     * @retval false the design is not ATOM-OPT, or @p core runs no
     *               atomic update
     */
    bool sourceLogFill(CoreId core, Addr addr, const Line &old_value);

    // --- WriteGate (log -> data ordering, Section III-C) ---------------

    bool tryAcquire(Addr line_addr, UnlockCallback on_unlock) override;

    // --- Power failure ----------------------------------------------------

    /**
     * ADR flush: serialize the critical registers (bucket bit vectors,
     * current bucket/record, sequence windows) into the controller's
     * ADR page of @p nvm. Called at power failure; zero-latency by the
     * ADR guarantee (Section IV-D).
     */
    void flushCriticalState(DataImage &nvm) const;

    // --- Introspection ---------------------------------------------------

    bool lineLocked(Addr line_addr) const;
    const BucketTable &buckets() const { return _buckets; }
    const AusState &aus(std::uint32_t idx) const { return _aus[idx]; }

  private:
    /** Continuation of a log entry waiting for an open record: holds
     * the entry's data line and its ack inline (no heap). */
    using ReadyCallback = InplaceCallback<208>;

    /** Ensure @p aus has an open, unsealed record; may allocate a
     * bucket (possibly waiting on an OS overflow grant). */
    void withOpenRecord(std::uint32_t aus, ReadyCallback ready);

    /** Seal the open record: no more entries; header persists once all
     * entry data is durable. */
    void sealOpen(std::uint32_t aus);

    /** Issue the header write if the record is sealed + data-durable. */
    void maybeIssueHeader(std::uint32_t aus, OpenRecord *rec);

    /** Unlock @p rec's lines, return it to the pool, then run its
     * BASE ack. */
    void onHeaderDurable(std::uint32_t aus, OpenRecord *rec);

    /** A log (data or header) write of @p aus is durable; the last one
     * lets a waiting truncation finish. */
    void logWriteDone(std::uint32_t aus);

    /** @p aus has quiesced: clear its registers and free its buckets,
     * then run its truncation completion. */
    void finishTruncate(std::uint32_t aus);

    void lock(Addr line_addr);
    void unlock(Addr line_addr);

    McId _mc;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    const AddressMap &_amap;
    MemoryController &_ctrl;
    LogSpace &_os;
    const AusPool &_ausPool;
    /** False under BASE: acks wait for the entry to persist. */
    const bool _posted;

    BucketTable _buckets;
    std::vector<AusState> _aus;
    FreeListPool<OpenRecord> _records;

    /** Lock table: line -> (count, waiters). Implements the record-
     * header address match of Section IV-C. */
    struct LockState
    {
        std::uint32_t count = 0;
        std::vector<UnlockCallback> waiters;
    };
    LineMap<LockState> _locks;

    Counter &_statEntries;
    Counter &_statRecords;
    Counter &_statSourceLogged;
    Counter &_statOverflows;
    Counter &_statForcedSeals;
    Counter &_statDupEntries;
    Counter &_statTruncations;
};

} // namespace atomsim

#endif // ATOMSIM_ATOM_LOGM_HH
