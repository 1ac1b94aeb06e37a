/**
 * @file
 * Persistent-region allocator for the workloads.
 *
 * A bump allocator with per-core arenas over the simulated physical
 * address space. Per-core arenas keep each thread's structures
 * disjoint (as in the NVHeaps-style micro-benchmarks) while page
 * interleaving spreads them across memory controllers. Freed blocks
 * go to per-size free lists for reuse; allocator *metadata* is
 * simulation-side (the paper's workloads use a persistent allocator,
 * but allocator persistence is orthogonal to the logging study, so
 * its metadata generates no simulated memory traffic).
 */

#ifndef ATOMSIM_WORKLOADS_HEAP_HH
#define ATOMSIM_WORKLOADS_HEAP_HH

#include <cstdint>
#include <map>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Bump allocator with per-core arenas and size-class free lists. */
class PersistentHeap
{
  public:
    /**
     * @param base  first usable byte
     * @param limit one past the last usable byte (the log region
     *              starts here; allocation past it is fatal)
     * @param cores number of per-core arenas
     */
    PersistentHeap(Addr base, Addr limit, std::uint32_t cores);

    /**
     * Allocate @p bytes for @p core, aligned to @p align (power of 2,
     * >= 8). Objects of a cache line or more are line-aligned so
     * entry payloads occupy whole lines.
     */
    Addr alloc(std::uint32_t core, std::size_t bytes,
               std::size_t align = 8);

    /** Return a block to @p core's free list for its size class. */
    void free(std::uint32_t core, Addr addr, std::size_t bytes);

    /** One past the highest address ever allocated. */
    Addr highWater() const { return _highWater; }

  private:
    struct Arena
    {
        Addr cursor = 0;
        Addr end = 0;
        std::map<std::size_t, std::vector<Addr>> freeLists;
    };

    /** Grow @p core's arena by one chunk (at least @p min_bytes). */
    void refill(std::uint32_t core, std::size_t min_bytes);

    Addr _next;
    Addr _limit;
    Addr _highWater = 0;
    std::vector<Arena> _arenas;

    static constexpr Addr kArenaChunk = 64 * kPageBytes;
};

} // namespace atomsim

#endif // ATOMSIM_WORKLOADS_HEAP_HH
