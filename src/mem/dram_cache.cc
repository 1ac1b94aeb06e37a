#include "mem/dram_cache.hh"

#include "sim/logging.hh"

namespace atomsim
{

DramCache::DramCache(const SystemConfig &cfg, StatSet &stats,
                     const std::string &stat_group)
    : _assoc(cfg.dramCacheAssoc),
      _statHits(stats.counter(stat_group, "dram_hits")),
      _statMisses(stats.counter(stat_group, "dram_misses")),
      _statWrAbsorbed(stats.counter(stat_group, "dram_wr_absorbed")),
      _statWbEvictions(stats.counter(stat_group, "wb_evictions"))
{
    const Addr bytes = Addr(cfg.dramCacheMBPerMc) * 1024 * 1024;
    _sets = std::uint32_t(bytes / (Addr(_assoc) * kLineBytes));
    panic_if(_sets == 0, "DRAM cache too small for its associativity");
    _ways.resize(std::size_t(_sets) * _assoc);
    _data.resize(std::size_t(_sets) * _assoc);
}

std::uint32_t
DramCache::setOf(Addr line) const
{
    return std::uint32_t(lineNumber(line) % _sets);
}

DramCache::Way *
DramCache::find(Addr line)
{
    Way *base = &_ways[std::size_t(setOf(line)) * _assoc];
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (base[w].valid && base[w].tag == line)
            return &base[w];
    }
    return nullptr;
}

const DramCache::Way *
DramCache::find(Addr line) const
{
    return const_cast<DramCache *>(this)->find(line);
}

Line &
DramCache::dataOf(const Way *way)
{
    return _data[std::size_t(way - _ways.data())];
}

bool
DramCache::contains(Addr addr) const
{
    return find(lineAlign(addr)) != nullptr;
}

bool
DramCache::isDirty(Addr addr) const
{
    const Way *way = find(lineAlign(addr));
    return way && way->dirty;
}

const Line *
DramCache::peek(Addr addr) const
{
    const Way *way = find(lineAlign(addr));
    if (!way)
        return nullptr;
    return &const_cast<DramCache *>(this)->dataOf(way);
}

bool
DramCache::read(Addr addr, Line &out)
{
    Way *way = find(lineAlign(addr));
    if (!way) {
        _statMisses.inc();
        return false;
    }
    _statHits.inc();
    way->lru = ++_useStamp;
    out = dataOf(way);
    return true;
}

DramCache::Victim
DramCache::fill(Addr addr, const Line &data)
{
    const Addr line = lineAlign(addr);
    Victim victim;
    if (Way *way = find(line)) {
        // An absorbed write raced the NVM read: the cached copy is
        // newer than the fill data; keep it.
        way->lru = ++_useStamp;
        return victim;
    }
    Way *base = &_ways[std::size_t(setOf(line)) * _assoc];
    Way *slot = nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (!base[w].valid) {
            slot = &base[w];
            break;
        }
        if (!slot || base[w].lru < slot->lru)
            slot = &base[w];
    }
    if (slot->valid && slot->dirty) {
        victim.dirty = true;
        victim.addr = slot->tag;
        victim.data = dataOf(slot);
        _statWbEvictions.inc();
    }
    slot->tag = line;
    slot->valid = true;
    slot->dirty = false;
    slot->lru = ++_useStamp;
    dataOf(slot) = data;
    return victim;
}

DramCache::Victim
DramCache::absorb(Addr addr, const Line &data)
{
    const Addr line = lineAlign(addr);
    _statWrAbsorbed.inc();
    if (Way *way = find(line)) {
        way->dirty = true;
        way->lru = ++_useStamp;
        dataOf(way) = data;
        return Victim{};
    }
    Victim victim = fill(line, data);
    find(line)->dirty = true;
    return victim;
}

void
DramCache::writeThrough(Addr addr, const Line &data)
{
    if (Way *way = find(lineAlign(addr))) {
        way->lru = ++_useStamp;
        way->dirty = false;  // NVM is receiving these very bytes
        dataOf(way) = data;
    }
}

void
DramCache::markClean(Addr addr)
{
    if (Way *way = find(lineAlign(addr)))
        way->dirty = false;
}

std::size_t
DramCache::dirtyLines() const
{
    std::size_t n = 0;
    for (const Way &w : _ways) {
        if (w.valid && w.dirty)
            ++n;
    }
    return n;
}

} // namespace atomsim
