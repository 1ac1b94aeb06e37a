/**
 * @file
 * Atomic Update Structures (AUS) -- Section IV-C, Figure 4(b) -- and
 * the pool of AUS slots the cores share.
 *
 * Per memory controller, each in-flight atomic update owns: its bucket
 * bit vector (in BucketTable), a current-bucket register, a
 * current-record register, the record-header register for the record
 * being filled, and the sequence window [txnStartSeq, nextSeq) used by
 * recovery to identify this update's records. A record-header register
 * is a node of its LogM's pool: it leaves the AUS when the record
 * seals, and the record's own write completions carry it until its
 * header persists.
 */

#ifndef ATOMSIM_ATOM_AUS_HH
#define ATOMSIM_ATOM_AUS_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "atom/log_record.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/line_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Sentinel for "no bucket allocated". */
constexpr std::uint32_t kNoBucket = ~std::uint32_t(0);

/**
 * A log-entry acknowledgement (LogM::postLogEntry). Fixed capacity:
 * large enough for the controller port's LogAck relay (the port, the
 * core id and the store path's own 72-byte packet rider), with no
 * heap fallback.
 */
using LogAckCallback = InplaceCallback<96>;

/**
 * A record-header register: the record being assembled, or one that is
 * sealed but whose header has not yet persisted. A pooled node (see
 * LogM): the data and header write completions of the record hold its
 * pointer, and the header's completion returns it to the pool.
 */
struct OpenRecord
{
    OpenRecord *next = nullptr;  //!< free-list link while idle
    /** The register itself: AUS id, sequence, entry count and the
     * logged line addresses, exactly as the header line persists. */
    LogRecordHeader hdr;
    Addr base = 0;             //!< NVM address of the record
    std::uint32_t pendingData = 0; //!< entry data writes not yet durable
    bool sealed = false;       //!< no more entries may be added
    /** BASE: the ack of the record's one entry, fired when the header
     * persists (Figure 3(a)). */
    LogAckCallback persistAck;
};

/** Per-(controller, AUS) registers. */
struct AusState
{
    bool active = false;
    std::uint32_t currentBucket = kNoBucket;
    /** Next record slot to use inside currentBucket. */
    std::uint32_t currentRecord = 0;
    /** First sequence number of the running update. */
    std::uint32_t txnStartSeq = 0;
    /** Next sequence number to assign (monotonic across updates). */
    std::uint32_t nextSeq = 0;

    /** Record being filled (the record-header register); null until
     * the next entry opens one after a seal. */
    OpenRecord *open = nullptr;
    /**
     * Lines already logged by the running update. An undo log needs
     * exactly one pre-image per line per update (recovery applies
     * records newest-first, so the oldest entry decides the restored
     * value); a re-log -- an L1 retrying a store after losing the line
     * between log-ack and store-apply -- is matched here and acked
     * without burning a record. Without this, a store thrashing
     * against recalls in a small L2 seals a one-entry record per
     * retry until the log region is exhausted, and since buckets are
     * only reclaimed at commit, the overflow interrupt can never be
     * satisfied: the machine livelocks. Under BASE the mapped value
     * says the line's entry has persisted; other designs leave it
     * false.
     */
    LineMap<bool> loggedLines;
    /** Outstanding log (data or header) writes for this AUS. */
    std::uint32_t outstandingWrites = 0;
    /** A truncation waits for outstandingWrites to hit zero. An AUS
     * truncates once at a time, so one slot holds its completion. */
    bool truncating = false;
    InplaceCallback<16> truncateDone;
};

/**
 * Pool of AUS slots shared by the cores.
 *
 * The paper supports one atomic update per core (32 AUS); when fewer
 * slots than cores are configured, Atomic_Begin stalls until a slot
 * frees -- a structural overflow, which cannot deadlock because the
 * waiting update holds no resources (Section IV-E).
 */
class AusPool
{
  public:
    /** Runs with the granted slot id. */
    using Granted = InplaceFunction<void(std::uint32_t), 32>;

    AusPool(EventQueue &eq, std::uint32_t slots, std::uint32_t cores,
            StatSet &stats);

    /** Acquire a slot for @p core; @p granted runs with the slot id. */
    void acquire(CoreId core, Granted granted);

    /** Release @p core's slot (after truncation completes). */
    void release(CoreId core);

    /** Slot of @p core, or -1 when it has no active atomic update. */
    int slotOf(CoreId core) const { return _slotOf[core]; }

    std::uint64_t
    structuralStallCycles() const
    {
        return _statStallCycles.value();
    }

    /** Per-core tenant acquire counters ("tenantN.aus_acquires");
     * empty (the default) disables per-tenant accounting. */
    void
    setTenantCounters(std::vector<Counter *> per_core)
    {
        _tenantAcquires = std::move(per_core);
    }

  private:
    /** Hand @p slot to @p core and count the acquire. */
    void grant(CoreId core, std::uint32_t slot, Granted &granted);

    /** A core stalled on a structural overflow since @p since. */
    struct Waiter
    {
        Tick since;
        CoreId core;
        Granted granted;
    };

    EventQueue &_eq;
    std::vector<int> _slotOf;        //!< per core; -1 = none
    std::vector<bool> _slotBusy;
    std::deque<Waiter> _waiters;

    Counter &_statStallCycles;
    Counter &_statAcquires;
    std::vector<Counter *> _tenantAcquires;  //!< per core; may be empty
};

} // namespace atomsim

#endif // ATOMSIM_ATOM_AUS_HH
