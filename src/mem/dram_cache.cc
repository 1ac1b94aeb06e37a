#include "mem/dram_cache.hh"

namespace atomsim
{

DramCache::DramCache(const SystemConfig &cfg, StatSet &stats,
                     const std::string &stat_group)
    : _array(Addr(cfg.dramCacheMBPerMc) * 1024 * 1024, cfg.dramCacheAssoc),
      _statHits(stats.counter(stat_group, "dram_hits")),
      _statMisses(stats.counter(stat_group, "dram_misses")),
      _statWrAbsorbed(stats.counter(stat_group, "dram_wr_absorbed")),
      _statWbEvictions(stats.counter(stat_group, "wb_evictions"))
{
}

bool
DramCache::contains(Addr addr) const
{
    return _array.find(addr) != nullptr;
}

bool
DramCache::isDirty(Addr addr) const
{
    const CacheLineState *frame = _array.find(addr);
    return frame && frame->dirty;
}

const Line *
DramCache::peek(Addr addr) const
{
    const CacheLineState *frame = _array.find(addr);
    return frame ? &frame->data : nullptr;
}

bool
DramCache::read(Addr addr, Line &out)
{
    const CacheLineState *frame = _array.touch(addr);
    if (!frame) {
        _statMisses.inc();
        return false;
    }
    _statHits.inc();
    out = frame->data;
    return true;
}

DramCache::Victim
DramCache::fill(Addr addr, const Line &data)
{
    Victim victim;
    // An absorbed write raced the NVM read: the cached copy is newer
    // than the fill data; keep it.
    if (_array.touch(addr))
        return victim;
    CacheLineState *frame = _array.victim(addr);
    if (frame->valid && frame->dirty) {
        victim.dirty = true;
        victim.addr = frame->tag;
        victim.data = frame->data;
        _statWbEvictions.inc();
    }
    _array.install(frame, addr);
    frame->data = data;
    return victim;
}

DramCache::Victim
DramCache::absorb(Addr addr, const Line &data)
{
    _statWrAbsorbed.inc();
    if (CacheLineState *frame = _array.touch(addr)) {
        frame->dirty = true;
        frame->data = data;
        return Victim{};
    }
    Victim victim = fill(addr, data);
    _array.find(addr)->dirty = true;
    return victim;
}

void
DramCache::writeThrough(Addr addr, const Line &data)
{
    if (CacheLineState *frame = _array.touch(addr)) {
        frame->dirty = false;  // NVM is receiving these very bytes
        frame->data = data;
    }
}

void
DramCache::markClean(Addr addr)
{
    if (CacheLineState *frame = _array.find(addr))
        frame->dirty = false;
}

std::size_t
DramCache::dirtyLines() const
{
    std::size_t n = 0;
    _array.forEachValid([&n](const CacheLineState &frame) {
        if (frame.dirty)
            ++n;
    });
    return n;
}

} // namespace atomsim
