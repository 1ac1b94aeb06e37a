#include "workloads/heap.hh"

#include "sim/logging.hh"

namespace atomsim
{

PersistentHeap::PersistentHeap(Addr base, Addr limit, std::uint32_t cores)
    : _next(base), _limit(limit), _arenas(cores)
{
    fatal_if(base >= limit, "empty heap region");
}

void
PersistentHeap::refill(std::uint32_t core, std::size_t min_bytes)
{
    // Chunks grow to fit oversized allocations (whole pages).
    Addr chunk = kArenaChunk;
    const Addr need =
        (Addr(min_bytes) + kPageBytes - 1) / kPageBytes * kPageBytes;
    if (need > chunk)
        chunk = need;
    fatal_if(_next + chunk > _limit,
             "persistent heap exhausted (data region too small)");
    Arena &arena = _arenas[core];
    arena.cursor = _next;
    arena.end = _next + chunk;
    _next += chunk;
}

Addr
PersistentHeap::alloc(std::uint32_t core, std::size_t bytes,
                      std::size_t align)
{
    panic_if(core >= _arenas.size(), "bad core %u", core);
    panic_if(bytes == 0, "zero-byte allocation");
    if (bytes >= kLineBytes && align < kLineBytes)
        align = kLineBytes;

    Arena &arena = _arenas[core];

    // Size-class reuse first.
    auto it = arena.freeLists.find(bytes);
    if (it != arena.freeLists.end() && !it->second.empty()) {
        const Addr addr = it->second.back();
        it->second.pop_back();
        return addr;
    }

    for (;;) {
        const Addr aligned = (arena.cursor + align - 1) & ~(align - 1);
        if (aligned + bytes <= arena.end && arena.end != 0) {
            arena.cursor = aligned + bytes;
            if (arena.cursor > _highWater)
                _highWater = arena.cursor;
            return aligned;
        }
        refill(core, bytes + align);
    }
}

void
PersistentHeap::free(std::uint32_t core, Addr addr, std::size_t bytes)
{
    panic_if(core >= _arenas.size(), "bad core %u", core);
    _arenas[core].freeLists[bytes].push_back(addr);
}

} // namespace atomsim
