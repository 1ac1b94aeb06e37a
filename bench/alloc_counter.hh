/**
 * @file
 * Heap-allocation counter for the benches whose gates count heap
 * allocations (kernel_events, hybrid_sweep, serving_sweep, ssd_sweep).
 *
 * bench/alloc_counter.cc replaces the global operator new/delete with
 * a malloc/free pair that counts every allocation and its requested
 * bytes, so only a binary that links it is counted.
 */

#ifndef ATOMSIM_BENCH_ALLOC_COUNTER_HH
#define ATOMSIM_BENCH_ALLOC_COUNTER_HH

#include <cstdint>

namespace atomsim
{
namespace bench
{

/** Heap allocations made through operator new since program start. */
std::uint64_t allocCount();

/** Bytes requested through operator new since program start (frees
 * are not subtracted). */
std::uint64_t allocBytes();

} // namespace bench
} // namespace atomsim

#endif // ATOMSIM_BENCH_ALLOC_COUNTER_HH
