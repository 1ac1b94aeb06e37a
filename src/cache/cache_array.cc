#include "cache/cache_array.hh"

#include "sim/logging.hh"

namespace atomsim
{

CacheArray::CacheArray(Addr size_bytes, std::uint32_t assoc,
                       std::uint32_t index_div)
    : _assoc(assoc), _indexDiv(index_div == 0 ? 1 : index_div)
{
    panic_if(assoc == 0, "associativity must be > 0");
    const Addr lines = size_bytes / kLineBytes;
    panic_if(lines % assoc != 0, "lines not divisible by associativity");
    _numSets = std::uint32_t(lines / assoc);
    panic_if(_numSets == 0 || (_numSets & (_numSets - 1)) != 0,
             "set count must be a power of two (got %u)", _numSets);
    _sets.resize(_numSets);
}

std::uint32_t
CacheArray::setIndex(Addr line_addr) const
{
    return std::uint32_t((lineNumber(line_addr) / _indexDiv) &
                         (_numSets - 1));
}

CacheLineState *
CacheArray::find(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    CacheLineState *set = _sets[setIndex(line_addr)].get();
    if (!set)
        return nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (set[w].valid && set[w].tag == line_addr)
            return &set[w];
    }
    return nullptr;
}

const CacheLineState *
CacheArray::find(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->find(line_addr);
}

CacheLineState *
CacheArray::touch(Addr line_addr)
{
    CacheLineState *frame = find(line_addr);
    if (frame)
        frame->lruStamp = ++_stamp;
    return frame;
}

CacheLineState *
CacheArray::victim(Addr line_addr)
{
    auto &set = _sets[setIndex(lineAlign(line_addr))];
    if (!set) {
        set = std::make_unique<CacheLineState[]>(_assoc);
        ++_setsAllocated;
    }
    CacheLineState *lru = nullptr;
    CacheLineState *lru_any = nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        auto &frame = set[w];
        if (!frame.valid)
            return &frame;
        if (!frame.pinned && (!lru || frame.lruStamp < lru->lruStamp))
            lru = &frame;
        if (!lru_any || frame.lruStamp < lru_any->lruStamp)
            lru_any = &frame;
    }
    // Prefer an unpinned victim; an all-pinned set (possible only with
    // more in-flight logged stores than ways) falls back to plain LRU.
    return lru ? lru : lru_any;
}

void
CacheArray::install(CacheLineState *frame, Addr line_addr)
{
    frame->reset();
    frame->tag = lineAlign(line_addr);
    frame->valid = true;
    frame->lruStamp = ++_stamp;
}

} // namespace atomsim
