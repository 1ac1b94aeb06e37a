#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace
{

std::uint64_t g_allocCount = 0;
std::uint64_t g_allocBytes = 0;

void *
countedAlloc(std::size_t size)
{
    ++g_allocCount;
    g_allocBytes += size;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

std::uint64_t
atomsim::bench::allocCount()
{
    return g_allocCount;
}

std::uint64_t
atomsim::bench::allocBytes()
{
    return g_allocBytes;
}
