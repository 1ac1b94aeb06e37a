/**
 * @file
 * Physical address space layout and interleaving.
 *
 * The simulated physical address space is split into a data region and
 * an OS-reserved log region (Section IV-E of the paper). Pages are
 * interleaved across memory controllers at 4 KB granularity, so a log
 * *bucket* -- 8 records x 512 B = 4 KB -- is exactly one page that maps
 * wholly to one controller. L2 home tiles are line-interleaved.
 *
 * Page-granularity MC interleaving (vs gem5's line interleaving) keeps
 * log/data co-location well defined: ATOM sends a log entry to the MC
 * owning the *data* page, and allocates the entry in a log bucket that
 * lives behind that same MC.
 *
 * The map also owns the hybrid-memory *app-direct window*: in
 * HybridMode::AppDirect, one region (log+ADR or data, per
 * SystemConfig::appDirectRegion) bypasses the per-MC DRAM cache.
 */

#ifndef ATOMSIM_MEM_ADDRESS_MAP_HH
#define ATOMSIM_MEM_ADDRESS_MAP_HH

#include <cstdint>

#include "mem/phys_mem.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Address-space layout + interleave functions. All methods are pure. */
class AddressMap
{
  public:
    /**
     * @param cfg      system configuration (MC count, bucket counts)
     * @param data_bytes size of the data region (log region follows it)
     */
    AddressMap(const SystemConfig &cfg, Addr data_bytes);

    /** Memory controller owning the page of @p addr. */
    McId memCtrl(Addr addr) const;

    /** L2 home tile of the line of @p addr. */
    std::uint32_t homeTile(Addr addr) const;

    /** First byte of the log region. */
    Addr logBase() const { return _logBase; }

    /** One past the last byte of the (initially reserved) log region. */
    Addr logEnd() const { return _logEnd; }

    /** True if @p addr falls in the reserved log region. */
    bool
    isLogAddr(Addr addr) const
    {
        return addr >= _logBase && addr < _logEnd;
    }

    /**
     * Base address of a log bucket.
     *
     * Bucket @p bucket of controller @p mc is the (bucket*numMc+mc)-th
     * page of the log region, which interleaving maps to @p mc.
     */
    Addr bucketBase(McId mc, std::uint32_t bucket) const;

    /** Base address of a 512-byte record inside a bucket. */
    Addr recordBase(McId mc, std::uint32_t bucket,
                    std::uint32_t record) const;

    /**
     * Base of the one-page ADR region of controller @p mc, right after
     * the log region: the critical LogM registers are flushed here on
     * power failure (Section IV-D).
     */
    Addr adrBase(McId mc) const { return _logEnd + Addr(mc) * kPageBytes; }

    /** One past the last reserved byte (data + log + ADR regions,
     * plus the SSD forwarding-map region when the flash tier is on). */
    Addr
    reservedEnd() const
    {
        return ssdMapBase() +
               Addr(_ssdMapPagesPerMc) * _numMc * kPageBytes;
    }

    // --- Flash tier: NVM-resident forwarding map ---------------------

    /** 16-byte forwarding entries per map page. */
    static constexpr std::uint32_t kSsdEntriesPerMapPage =
        kPageBytes / 16;

    /**
     * First byte of the forwarding-map region, right after the ADR
     * pages. Like log buckets, map page @p j of controller @p mc is
     * the (j*numMc+mc)-th page of the region, so page interleaving
     * maps every controller's slice to itself. The region is empty
     * (zero pages) unless SystemConfig::ssdTier is set, so the default
     * layout — and every pinned golden — is unchanged.
     */
    Addr
    ssdMapBase() const
    {
        return _logEnd + Addr(_numMc) * kPageBytes;
    }

    /** Forwarding-map pages per controller (0 with the tier off). */
    std::uint32_t ssdMapPagesPerMc() const { return _ssdMapPagesPerMc; }

    /** Forwarding-map entries (= mappable flash pages) per controller. */
    std::uint32_t
    ssdMapEntriesPerMc() const
    {
        return _ssdMapPagesPerMc * kSsdEntriesPerMapPage;
    }

    /** Base address of forwarding-map page @p j of controller @p mc. */
    Addr ssdMapPage(McId mc, std::uint32_t j) const;

    // --- Hybrid memory: app-direct partitioning ----------------------

    /**
     * First byte of the app-direct window -- the region that bypasses
     * the per-MC DRAM cache and talks straight to NVM. Empty (base ==
     * end == 0) unless hybridMode == AppDirect, where
     * SystemConfig::appDirectRegion picks either the log + ADR region
     * (log placement: direct-to-NVM, data DRAM-cached) or the data
     * region (the inverse design point).
     */
    Addr appDirectBase() const { return _appDirectBase; }

    /** One past the last byte of the app-direct window. The
     * controllers test addresses against [base, end) through the
     * single shared predicate (sim/types.hh::inAddrWindow); whether a
     * DRAM tier exists at all is the controller's _dram null-check,
     * so there is exactly one source of truth for each half of the
     * decision. */
    Addr appDirectEnd() const { return _appDirectEnd; }

    /** Bytes in one log record (8 lines). */
    static constexpr Addr kRecordBytes = 8 * kLineBytes;

    std::uint32_t numMemCtrls() const { return _numMc; }
    std::uint32_t bucketsPerMc() const { return _bucketsPerMc; }
    std::uint32_t recordsPerBucket() const { return _recordsPerBucket; }

  private:
    std::uint32_t _numMc;
    std::uint32_t _l2Tiles;
    std::uint32_t _bucketsPerMc;
    std::uint32_t _recordsPerBucket;
    std::uint32_t _ssdMapPagesPerMc = 0;
    Addr _logBase;
    Addr _logEnd;
    Addr _appDirectBase = 0;
    Addr _appDirectEnd = 0;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_ADDRESS_MAP_HH
