/**
 * @file
 * Sparse byte-addressable memory images.
 *
 * atomsim keeps two images of memory:
 *
 *  - the *architectural* image, updated eagerly when workload
 *    transactions execute functionally; and
 *  - the *durable* (NVM) image, updated only by timing-model writes
 *    (data writebacks/flushes and log writes).
 *
 * Both are instances of DataImage. Crash/recovery tests diff them.
 */

#ifndef ATOMSIM_MEM_PHYS_MEM_HH
#define ATOMSIM_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/line_map.hh"
#include "sim/types.hh"

namespace atomsim
{

/** One cache line of data. */
using Line = std::array<std::uint8_t, kLineBytes>;

/** Page size used for sparse allocation and MC interleaving. */
constexpr std::uint32_t kPageBytes = 4096;
constexpr std::uint32_t kPageShift = 12;

/**
 * A sparse, zero-initialized byte-addressable memory image.
 *
 * Pages materialize on first write; reads of untouched memory return
 * zeroes.
 */
class DataImage
{
  public:
    DataImage() = default;

    /** Read @p size bytes at @p addr into @p out. */
    void read(Addr addr, std::size_t size, void *out) const;

    /** Write @p size bytes at @p addr from @p in. */
    void write(Addr addr, std::size_t size, const void *in);

    /** Read one 64-byte line (addr need not be aligned; it is aligned). */
    Line readLine(Addr addr) const;

    /** Write one 64-byte line at the line containing @p addr. */
    void writeLine(Addr addr, const Line &line);

    /**
     * Word-granular commit: write only the first @p words 8-byte
     * words of @p line, leaving the tail of the stored line as it
     * was. This is the torn-write primitive -- NVM guarantees only
     * 8-byte atomicity, so a line write interrupted by power failure
     * lands as a word-aligned prefix. @p words is clamped to the 8
     * words of a line; 0 is a no-op, 8 equals writeLine.
     */
    void writeLineWords(Addr addr, const Line &line, std::uint32_t words);

    /** Convenience scalar accessors. */
    std::uint64_t
    load64(Addr addr) const
    {
        std::uint64_t v;
        read(addr, sizeof(v), &v);
        return v;
    }

    void
    store64(Addr addr, std::uint64_t v)
    {
        write(addr, sizeof(v), &v);
    }

    std::uint32_t
    load32(Addr addr) const
    {
        std::uint32_t v;
        read(addr, sizeof(v), &v);
        return v;
    }

    void
    store32(Addr addr, std::uint32_t v)
    {
        write(addr, sizeof(v), &v);
    }

    /** Number of materialized pages (for tests / footprint stats). */
    std::size_t pagesAllocated() const { return _pages.size(); }

    /** Drop all contents. */
    void clear() { _pages.clear(); }

    /** Deep copy (used by crash tests to snapshot the NVM image). */
    DataImage clone() const;

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    const Page *findPage(Addr page_num) const;
    Page &touchPage(Addr page_num);

    /** Page number -> page (pages stay put when the index grows). */
    LineMap<std::unique_ptr<Page>> _pages;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_PHYS_MEM_HH
