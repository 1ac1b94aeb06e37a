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
    _numSets = std::uint32_t(bytes / (Addr(_assoc) * kLineBytes));
    panic_if(_numSets == 0, "DRAM cache too small for its associativity");
    _sets.resize(_numSets);
}

std::uint32_t
DramCache::setOf(Addr line) const
{
    return std::uint32_t(lineNumber(line) % _numSets);
}

DramCache::Way *
DramCache::find(Addr line)
{
    Way *set = _sets[setOf(line)].get();
    if (!set)
        return nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (set[w].valid && set[w].tag == line)
            return &set[w];
    }
    return nullptr;
}

const DramCache::Way *
DramCache::find(Addr line) const
{
    return const_cast<DramCache *>(this)->find(line);
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
    return way ? &way->data : nullptr;
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
    out = way->data;
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
    auto &set = _sets[setOf(line)];
    if (!set) {
        set = std::make_unique<Way[]>(_assoc);
        ++_setsAllocated;
    }
    Way *slot = nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (!set[w].valid) {
            slot = &set[w];
            break;
        }
        if (!slot || set[w].lru < slot->lru)
            slot = &set[w];
    }
    if (slot->valid && slot->dirty) {
        victim.dirty = true;
        victim.addr = slot->tag;
        victim.data = slot->data;
        _statWbEvictions.inc();
    }
    slot->tag = line;
    slot->valid = true;
    slot->dirty = false;
    slot->lru = ++_useStamp;
    slot->data = data;
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
        way->data = data;
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
        way->data = data;
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
    for (const auto &set : _sets) {
        if (!set)
            continue;
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (set[w].valid && set[w].dirty)
                ++n;
        }
    }
    return n;
}

} // namespace atomsim
