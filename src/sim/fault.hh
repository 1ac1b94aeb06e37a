/**
 * @file
 * Deterministic fault-injection hashing.
 *
 * Every injected fault (torn-write word boundaries, media read
 * errors, recovery-crash tear points) derives from a stateless hash
 * of deterministic keys: the configured fault seed plus values the
 * golden traces already pin (addresses, per-controller acceptance
 * sequence numbers, per-channel read indices). Nothing here consults
 * wall-clock time or iteration order, so the same seed produces the
 * same fault pattern across reruns -- a failing fault-injection cell is
 * replayable by ID exactly like a clean-power-failure cell.
 */

#ifndef ATOMSIM_SIM_FAULT_HH
#define ATOMSIM_SIM_FAULT_HH

#include <cstdint>

namespace atomsim
{

/**
 * Mix up to four 64-bit keys into one well-distributed word
 * (splitmix64 finalizer over a multiply-accumulated combination).
 */
inline std::uint64_t
faultMix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
         std::uint64_t d = 0)
{
    std::uint64_t z = a;
    z = (z ^ b) * 0x9e3779b97f4a7c15ull;
    z = (z ^ c) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ d) * 0x94d049bb133111ebull;
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ull;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z;
}

/**
 * Seeded torn-write boundary for one 64-byte line write: the number
 * of leading 8-byte words (0..8 inclusive) that reach the device
 * before power is lost. NVM guarantees only 8-byte atomicity, so a
 * write interrupted by power failure commits a word-aligned prefix:
 * 0 leaves the old line intact, 8 is a complete (lucky) write, and
 * anything between is a genuine tear.
 */
inline std::uint32_t
tornWordCount(std::uint64_t seed, std::uint64_t stream, std::uint64_t addr,
              std::uint64_t op)
{
    return std::uint32_t(faultMix(seed, stream, addr, op) % 9);
}

} // namespace atomsim

#endif // ATOMSIM_SIM_FAULT_HH
