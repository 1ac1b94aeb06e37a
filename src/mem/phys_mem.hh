/**
 * @file
 * Sparse byte-addressable memory images that share pages on clone.
 *
 * atomsim keeps two images of memory:
 *
 *  - the *architectural* image, updated eagerly when workload
 *    transactions execute functionally; and
 *  - the *durable* (NVM) image, updated only by timing-model writes
 *    (data writebacks/flushes and log writes).
 *
 * Both are instances of DataImage. The durable image starts as a
 * clone() of the architectural one after functional initialization,
 * and recovery experiments clone the durable image again. A clone
 * shares every page with its source and copies a page only when one
 * side first writes it, so a snapshot costs the page index rather than
 * the image, and each image still reads as a deep copy. Images that
 * share pages must stay on one thread: the page counts are not atomic.
 */

#ifndef ATOMSIM_MEM_PHYS_MEM_HH
#define ATOMSIM_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>

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
 * zeroes. Each page carries an intrusive count of the images that hold
 * it, and each slot of the page index a "shared" bit that clone() sets
 * in the source and the copy. A write reads the count only through a
 * slot with that bit set -- the count sits on another host cache line
 * than the bytes written -- and then copies the page first, or takes it
 * over when this image holds its last reference.
 */
class DataImage
{
  public:
    DataImage() = default;
    ~DataImage();

    /** Moves leave @p other empty (and usable). */
    DataImage(DataImage &&other) noexcept = default;
    DataImage &operator=(DataImage &&other) noexcept;

    /** Images are copied only through clone(). */
    DataImage(const DataImage &) = delete;
    DataImage &operator=(const DataImage &) = delete;

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

    /**
     * An image that reads as a deep copy of this one, now and after
     * either is written, and that may outlive it. It shares every page
     * with this image instead of copying it (hence non-const: this
     * image's slots are marked shared), so it costs one copy of the
     * page index.
     */
    DataImage clone();

  private:
    struct Page
    {
        std::array<std::uint8_t, kPageBytes> bytes{};  //!< zeroed
        std::uint32_t refs = 1;  //!< images holding this page
    };

    /** A page-index slot: the Page's address, its low bit set when the
     * page may be shared with another image. */
    using PageSlot = std::uintptr_t;
    static constexpr PageSlot kShared = 1;

    static Page *
    pageOf(PageSlot slot)
    {
        return reinterpret_cast<Page *>(slot & ~kShared);
    }

    /** A page this image alone holds, for a slot that is empty or
     * shared. */
    static PageSlot ownedPage(PageSlot slot);

    /** Drop this image's reference to every page. */
    void releasePages();

    const std::uint8_t *findPage(Addr page_num) const;
    std::uint8_t *writablePage(Addr page_num);

    /** Page number -> page slot (pages stay put when the index grows). */
    LineMap<PageSlot> _pages;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_PHYS_MEM_HH
