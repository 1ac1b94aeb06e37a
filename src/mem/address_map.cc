#include "mem/address_map.hh"

#include "sim/logging.hh"

namespace atomsim
{

AddressMap::AddressMap(const SystemConfig &cfg, Addr data_bytes)
    : _numMc(cfg.numMemCtrls),
      _l2Tiles(cfg.l2Tiles),
      _bucketsPerMc(cfg.bucketsPerMc)
{
    // Round the data region up to a whole number of interleave groups so
    // the log region starts on a page that maps to MC 0.
    const Addr group = Addr(kPageBytes) * _numMc;
    _logBase = (data_bytes + group - 1) / group * group;
    _logEnd = _logBase +
              Addr(_bucketsPerMc) * _numMc * kPageBytes;

    if (cfg.ssdTier) {
        _ssdMapPagesPerMc =
            (cfg.ssdFlashPagesPerMc + kSsdEntriesPerMapPage - 1) /
            kSsdEntriesPerMapPage;
    }

    if (cfg.hybridMode == HybridMode::AppDirect) {
        if (cfg.appDirectRegion == AppDirectRegion::LogRegion) {
            // Log placement "direct": the log and ADR pages bypass
            // the DRAM cache; data pages are cached.
            _appDirectBase = _logBase;
            _appDirectEnd = reservedEnd();
        } else {
            // Inverse design point: data pages direct, log cached.
            _appDirectBase = 0;
            _appDirectEnd = _logBase;
        }
    }
}

McId
AddressMap::memCtrl(Addr addr) const
{
    return McId((addr >> kPageShift) & (_numMc - 1));
}

std::uint32_t
AddressMap::homeTile(Addr addr) const
{
    return std::uint32_t(lineNumber(addr) % _l2Tiles);
}

Addr
AddressMap::bucketBase(McId mc, std::uint32_t bucket) const
{
    panic_if(mc >= _numMc, "bad mc %u", mc);
    return _logBase + (Addr(bucket) * _numMc + mc) * kPageBytes;
}

Addr
AddressMap::recordBase(McId mc, std::uint32_t bucket,
                       std::uint32_t record) const
{
    panic_if(record >= kRecordsPerBucket, "bad record index %u", record);
    return bucketBase(mc, bucket) + Addr(record) * kRecordBytes;
}

Addr
AddressMap::ssdMapPage(McId mc, std::uint32_t j) const
{
    panic_if(mc >= _numMc, "bad mc %u", mc);
    panic_if(j >= _ssdMapPagesPerMc, "bad ssd map page %u", j);
    return ssdMapBase() + (Addr(j) * _numMc + mc) * kPageBytes;
}

} // namespace atomsim
