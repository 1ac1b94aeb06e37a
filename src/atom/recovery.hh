/**
 * @file
 * Post-power-failure recovery (Section IV-D).
 *
 * The recovery routine is provided "as a system call": it reads the
 * ADR-flushed critical registers of every memory controller from NVM,
 * reconstructs the log-space state at the instant of the crash, and
 * undoes every incomplete atomic update by applying its records
 * newest-first. Only durable state is consulted -- the routine works
 * on a DataImage, never on the (gone) volatile structures.
 *
 * RedoRecovery implements the equivalent for the REDO comparator
 * design: reapply the entries of committed updates from the redo log.
 */

#ifndef ATOMSIM_ATOM_RECOVERY_HH
#define ATOMSIM_ATOM_RECOVERY_HH

#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "mem/phys_mem.hh"
#include "sim/config.hh"

namespace atomsim
{

class StatSet;

/** What a recovery pass did (reported by the routine). */
struct RecoveryReport
{
    std::uint32_t incompleteUpdates = 0;  //!< AUS rolled back
    std::uint32_t recordsApplied = 0;
    std::uint32_t linesRestored = 0;
    /** Torn record headers the scan recognized and skipped (magic
     * matched, checksum failed: a header write interrupted by the
     * power failure). Also counted into logmN.torn_records when a
     * StatSet is supplied. */
    std::uint32_t tornRecords = 0;
    /** The pass stopped at RecoveryOptions::maxApplications (a
     * crash-during-recovery experiment, not a completed recovery). */
    bool interrupted = false;
    bool criticalStateFound = true;
    /** Flash tier: pages copied back from flash by the forwarding-map
     * rehydration pass that runs before any log scan. */
    std::uint32_t pagesRehydrated = 0;
};

/**
 * Knobs of the resumable pass structure: recovery applies records in
 * a deterministic enumeration order and can be stopped after any
 * number of record applications -- and re-run. Both routines only
 * ever *read* the log/ADR regions and *write* data lines named by
 * valid records, so a second pass sees the identical valid-record
 * set and rewrites every affected line in full: recovery is
 * idempotent under double failure, even when the interrupting crash
 * tears recovery's own in-flight writes (tornWrites).
 */
struct RecoveryOptions
{
    /** Stop after this many record applications (0xffffffff = run
     * to completion). */
    std::uint32_t maxApplications = 0xffffffffu;
    /** When the budget interrupts the pass, apply the interrupting
     * record with each image write torn at a seeded word boundary:
     * the second power failure catches recovery's writes in flight. */
    bool tornWrites = false;
    std::uint64_t faultSeed = 1;
    /**
     * Flash tier: each controller's (surviving, non-volatile) flash
     * image, indexed by controller; empty without a flash tier
     * (System::flashImages). When set, recovery first *rehydrates*:
     * every valid NVM-resident forwarding-map entry copies its flash
     * page back into NVM and clears the entry (mem/ssd_device.hh's
     * fwdmap::rehydrate), so the subsequent log scans -- which may
     * need destaged log buckets or roll back destaged data pages --
     * read through a whole image. Rehydration is idempotent: a crash
     * mid-recovery re-runs it over the already-cleared entries.
     */
    std::vector<const DataImage *> flashImages;
};

/** Undo recovery for the ATOM / BASE designs. */
class RecoveryManager
{
  public:
    RecoveryManager(const SystemConfig &cfg, const AddressMap &amap);

    /**
     * Roll back every incomplete atomic update found in @p nvm.
     * Records apply newest-first (descending sequence; entries within
     * a record in reverse), so a line logged more than once ends at
     * its pre-update value.
     *
     * @param stats when given, torn headers bump logmN.torn_records.
     */
    RecoveryReport recover(DataImage &nvm,
                           const RecoveryOptions &opts = RecoveryOptions{},
                           StatSet *stats = nullptr) const;

  private:
    RecoveryReport recoverMc(DataImage &nvm, McId mc,
                             const RecoveryOptions &opts,
                             std::uint32_t &budget, StatSet *stats) const;

    const SystemConfig &_cfg;
    const AddressMap &_amap;
};

/** Redo recovery for the REDO design. */
class RedoRecovery
{
  public:
    RedoRecovery(const SystemConfig &cfg, const AddressMap &amap);

    /**
     * Reapply, in log order, every entry belonging to a committed
     * update; entries of uncommitted updates are discarded. The
     * budget counts applied entries (REDO's unit of application).
     */
    RecoveryReport
    recover(DataImage &nvm,
            const RecoveryOptions &opts = RecoveryOptions{}) const;

  private:
    const SystemConfig &_cfg;
    const AddressMap &_amap;
};

} // namespace atomsim

#endif // ATOMSIM_ATOM_RECOVERY_HH
