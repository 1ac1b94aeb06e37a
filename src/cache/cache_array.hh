/**
 * @file
 * Set-associative tag/data array with LRU replacement.
 */

#ifndef ATOMSIM_CACHE_CACHE_ARRAY_HH
#define ATOMSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
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
    CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
               std::uint32_t index_div = 1);

    /** Lookup without LRU update. nullptr on miss. */
    CacheLineState *find(Addr line_addr);
    const CacheLineState *find(Addr line_addr) const;

    /** Lookup and mark most-recently used. nullptr on miss. */
    CacheLineState *touch(Addr line_addr);

    /**
     * Choose a victim frame in the set of @p line_addr: an invalid
     * frame if available, else the LRU frame. Never returns nullptr.
     * The caller is responsible for evicting the current occupant.
     */
    CacheLineState *victim(Addr line_addr);

    /**
     * Install @p line_addr in @p frame (which must come from victim()
     * of the same set). Resets all metadata.
     */
    void install(CacheLineState *frame, Addr line_addr);

    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }

    /** Iterate all valid lines (tests, crash handling, flush walks). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &frame : _frames) {
            if (frame.valid)
                fn(frame);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &frame : _frames) {
            if (frame.valid)
                fn(frame);
        }
    }

  private:
    std::uint32_t setIndex(Addr line_addr) const;

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    std::uint32_t _indexDiv;
    std::uint64_t _stamp = 0;
    std::vector<CacheLineState> _frames;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_CACHE_ARRAY_HH
