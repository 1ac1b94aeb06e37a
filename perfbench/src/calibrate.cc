#include "calibrate.hh"

#include <algorithm>
#include <functional>
#include <numeric>

namespace perfbench
{

namespace
{

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

Calibrator::Calibrator()
{
    // A simulator-like mix over a working set beyond the private caches:
    // pointer chasing (object graphs), hash-map updates (directories,
    // stat lookups) and a binary heap (event ordering).
    _next.resize(std::size_t(1) << 20);
    std::iota(_next.begin(), _next.end(), 0u);
    // Sattolo's shuffle: one cycle through every slot.
    for (std::size_t i = _next.size() - 1; i > 0; --i)
        std::swap(_next[i], _next[xorshift(_rng) % i]);
    for (std::uint64_t k = 0; k < (1u << 16); ++k)
        _map[k * 2654435761u] = k;
    for (int i = 0; i < 4096; ++i)
        _heap.push_back(xorshift(_rng) % 100000);
    std::make_heap(_heap.begin(), _heap.end(), std::greater<>());
    _last = std::chrono::steady_clock::now();
}

double
Calibrator::runChunk()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t p = _cursor;
    std::uint64_t acc = 0;
    for (int i = 0; i < 6000; ++i) {
        p = _next[p];
        acc += p;
    }
    for (int i = 0; i < 3000; ++i)
        _map[(xorshift(_rng) & 0xffff) * 2654435761u] += acc;
    for (int i = 0; i < 3000; ++i) {
        std::pop_heap(_heap.begin(), _heap.end(), std::greater<>());
        _heap.back() += xorshift(_rng) % 1000;
        std::push_heap(_heap.begin(), _heap.end(), std::greater<>());
    }
    _cursor = p;
    _sink += acc;
    const auto t1 = std::chrono::steady_clock::now();
    _last = t1;
    return std::chrono::duration<double>(t1 - t0).count();
}

double
Calibrator::tick()
{
    const double since = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - _last)
                             .count();
    if (since < kInterval)
        return 0;
    const double s = runChunk();
    _chunkSeconds += s;
    ++_chunks;
    return s;
}

double
Calibrator::meanChunkSeconds() const
{
    return _chunks ? _chunkSeconds / double(_chunks) : 0.0;
}

void
Calibrator::reset()
{
    _chunkSeconds = runChunk();
    _chunks = 1;
}

} // namespace perfbench
