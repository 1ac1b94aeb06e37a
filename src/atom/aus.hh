/**
 * @file
 * Atomic Update Structures (AUS) -- Section IV-C, Figure 4(b).
 *
 * Per memory controller, each in-flight atomic update owns: its bucket
 * bit vector (in BucketTable), a current-bucket register, a
 * current-record register, the record-header register for the record
 * being filled, and the sequence window [txnStartSeq, nextSeq) used by
 * recovery to identify this update's records.
 */

#ifndef ATOMSIM_ATOM_AUS_HH
#define ATOMSIM_ATOM_AUS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "atom/log_record.hh"
#include "sim/callback.hh"
#include "sim/line_map.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Sentinel for "no bucket allocated". */
constexpr std::uint32_t kNoBucket = ~std::uint32_t(0);

/**
 * A log-entry acknowledgement (LogM::postLogEntry). Fixed capacity:
 * large enough for the LogI relay (node ids + the store path's own
 * 72-byte packet rider), with no heap fallback.
 */
using LogAckCallback = InplaceCallback<96>;

/**
 * The record currently being assembled (the record-header register),
 * or one that is sealed but whose header has not yet persisted.
 */
struct OpenRecord
{
    Addr base = 0;             //!< NVM address of the record
    std::uint32_t seq = 0;     //!< per-AUS monotonic sequence
    std::vector<Addr> entries; //!< logged line addresses (<= 7)
    std::uint32_t pendingData = 0; //!< entry data writes not yet durable
    bool sealed = false;       //!< no more entries may be added
    bool headerIssued = false; //!< header write handed to the channel
    /** BASE-mode acks to fire when the header persists (Figure 3(a)). */
    std::vector<LogAckCallback> persistAcks;
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

    /** Record being filled (the record-header register). */
    std::unique_ptr<OpenRecord> open;
    /** Sealed records whose headers have not yet persisted. */
    std::vector<std::unique_ptr<OpenRecord>> sealing;
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
     * satisfied: the machine livelocks. A set: the mapped value is
     * unused.
     */
    LineMap<bool> loggedLines;
    /** Outstanding log (data or header) writes for this AUS. */
    std::uint32_t outstandingWrites = 0;
    /** Callbacks waiting for outstandingWrites to hit zero. */
    std::vector<std::function<void()>> quiesceWaiters;
};

} // namespace atomsim

#endif // ATOMSIM_ATOM_AUS_HH
