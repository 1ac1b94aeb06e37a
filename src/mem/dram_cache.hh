/**
 * @file
 * Set-associative memory-mode DRAM cache in front of one controller's
 * NVM channel (SystemConfig::hybridMode != NvmOnly).
 *
 * Organization: dramCacheMBPerMc of 64-byte lines, dramCacheAssoc
 * ways, true-LRU within a set, held in a CacheArray (the L1 and L2
 * tiles' array, with its first-fill set allocation). Tags and metadata
 * live "in SRAM" -- simulator memory probed at zero cost -- so only
 * data movement is charged DRAM timing (mem/dram_device.hh). A set's
 * ways are allocated by the first fill() or absorb() that lands in
 * it, and every other probe of a never-filled set misses without
 * allocating. Once a workload has filled the sets it uses, the hit
 * path performs no heap allocation (bench/hybrid_sweep.cc gates this
 * with an operator-new counter).
 *
 * Policy (enforced by the owning MemoryController):
 *
 *  - demand fill on read miss: the NVM read's data installs here, and
 *    a dirty victim is written back to NVM through the ordinary
 *    (gated) write queue;
 *  - DataWb writes are *absorbed*: the L2's dirty evictions land in
 *    DRAM at DRAM latency and only reach NVM on victim eviction or a
 *    durability cleanse. Their completion has never been a durability
 *    promise -- commit-time persistence always travels as Flush;
 *  - every durability-bearing write kind (Flush, log/ADR/REDO
 *    traffic) is write-through: NVM decides the completion, and a
 *    present cached copy is updated and marked clean.
 *
 * The cache is volatile: recovery reads only the NVM image, so dirty
 * absorbed lines are lost at a power failure and only NVM-resident
 * bytes survive (tests/test_recovery.cc pins this).
 */

#ifndef ATOMSIM_MEM_DRAM_CACHE_HH
#define ATOMSIM_MEM_DRAM_CACHE_HH

#include <cstdint>
#include <string>

#include "cache/cache_array.hh"
#include "mem/phys_mem.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** One controller's DRAM cache (tags + data; timing lives with the
 * caller's DramDevice). */
class DramCache
{
  public:
    DramCache(const SystemConfig &cfg, StatSet &stats,
              const std::string &stat_group);

    /** A dirty line displaced by fill()/absorb(); must be written back
     * to NVM by the caller. */
    struct Victim
    {
        bool dirty = false;
        Addr addr = 0;
        Line data{};
    };

    /** True if the line of @p addr is present (no LRU update). */
    bool contains(Addr addr) const;

    /** True if the line is present and dirty (newer than NVM). */
    bool isDirty(Addr addr) const;

    /** Cached copy of the line (nullptr if absent; no LRU update). */
    const Line *peek(Addr addr) const;

    /**
     * Read probe: on a hit, touches LRU, copies the line into @p out
     * and returns true. Counts dram_hits / dram_misses.
     */
    bool read(Addr addr, Line &out);

    /**
     * Install @p data after a demand fill from NVM. If the line is
     * already present (an absorbed write landed while the NVM read
     * was in flight) the *cached* copy is newer and is kept. Returns
     * the displaced dirty victim, if any.
     */
    Victim fill(Addr addr, const Line &data);

    /**
     * Absorb a write (DataWb): update or allocate the line, mark it
     * dirty. Returns the displaced dirty victim, if any.
     */
    Victim absorb(Addr addr, const Line &data);

    /**
     * Write-through update: if the line is present, refresh its data
     * and mark it clean (NVM is receiving the same bytes). Never
     * allocates a way.
     */
    void writeThrough(Addr addr, const Line &data);

    /** Mark a present line clean (durability cleanse issued). */
    void markClean(Addr addr);

    std::uint32_t numSets() const { return _array.numSets(); }
    std::uint32_t assoc() const { return _array.assoc(); }
    /** Sets whose ways have been allocated (at most numSets()). */
    std::uint32_t setsAllocated() const { return _array.setsAllocated(); }

    /** Lines currently valid+dirty (tests). */
    std::size_t dirtyLines() const;

  private:
    CacheArray _array;

    Counter &_statHits;
    Counter &_statMisses;
    Counter &_statWrAbsorbed;
    Counter &_statWbEvictions;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_DRAM_CACHE_HH
