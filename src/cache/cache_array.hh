/**
 * @file
 * Set-associative tag/data array with LRU replacement, whose sets are
 * allocated at their first fill.
 *
 * Construction keeps only a per-set pointer table, so building a
 * machine costs what its run touches rather than every frame of every
 * L1 and L2 tile. A set's ways are allocated by the first victim()
 * call that lands in it; every other lookup in a never-filled set
 * misses without allocating. A set's storage never moves once
 * allocated, so the CacheLineState pointers the L1 and L2 hold across
 * calls stay valid for the array's lifetime, and its ways keep their
 * order and initial state, so replacement decisions are exactly those
 * of a dense array.
 */

#ifndef ATOMSIM_CACHE_CACHE_ARRAY_HH
#define ATOMSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_line.hh"
#include "sim/types.hh"

namespace atomsim
{

/**
 * A set-associative array of CacheLineState with true-LRU replacement.
 *
 * The array indexes by line address; set index bits come right above
 * the line offset. Size and associativity must describe a power-of-two
 * set count.
 */
class CacheArray
{
  public:
    /**
     * @param index_div divisor applied to the line number before set
     *        indexing. Banked caches whose bank-selection bits are the
     *        low line-number bits (the L2 tiles) must pass the bank
     *        count here, otherwise only numSets/index_div sets would
     *        ever be used.
     */
    CacheArray(Addr size_bytes, std::uint32_t assoc,
               std::uint32_t index_div = 1);

    /** Lookup without LRU update. nullptr on miss. Never allocates. */
    CacheLineState *find(Addr line_addr);
    const CacheLineState *find(Addr line_addr) const;

    /** Lookup and mark most-recently used. nullptr on miss. Never
     * allocates. */
    CacheLineState *touch(Addr line_addr);

    /**
     * Choose a victim frame in the set of @p line_addr: an invalid
     * frame if available, else the LRU frame. Never returns nullptr;
     * allocates the set if it was never filled. The caller is
     * responsible for evicting the current occupant.
     */
    CacheLineState *victim(Addr line_addr);

    /**
     * Install @p line_addr in @p frame (which must come from victim()
     * of the same set). Resets all metadata.
     */
    void install(CacheLineState *frame, Addr line_addr);

    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }
    /** Sets whose ways have been allocated (at most numSets()). */
    std::uint32_t setsAllocated() const { return _setsAllocated; }

    /** Iterate all valid lines, set by set in way order (tests). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &set : _sets) {
            if (!set)
                continue;
            for (std::uint32_t w = 0; w < _assoc; ++w) {
                if (set[w].valid)
                    fn(set[w]);
            }
        }
    }

  private:
    std::uint32_t setIndex(Addr line_addr) const;

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    std::uint32_t _indexDiv;
    std::uint32_t _setsAllocated = 0;
    std::uint64_t _stamp = 0;
    /** One entry per set: nullptr until the set's first fill, then
     * _assoc ways that never move. */
    std::vector<std::unique_ptr<CacheLineState[]>> _sets;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_CACHE_ARRAY_HH
