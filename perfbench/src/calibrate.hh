/**
 * @file
 * Host-speed reference: a fixed kernel, independent of the simulator,
 * run in short chunks interleaved with the measured work. The host this
 * benchmark runs on drifts in speed by tens of percent over minutes, and
 * the drift hits every workload at once; host times divided by the
 * reference's speed over the same interval compare across that drift.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench
{

class Calibrator
{
  public:
    Calibrator();

    /** Run one reference chunk if kInterval of host time has passed
     * since the last one; returns the seconds it took (0 if none ran). */
    double tick();

    /** Mean seconds per chunk since the last reset (0 if none ran). */
    double meanChunkSeconds() const;

    /** Forget the chunks measured so far, then measure one at once, so
     * every interval after a reset has at least one sample. */
    void reset();

    /** Nominal seconds of one chunk. A normalized time reads as host
     * seconds on a host that runs one chunk in exactly this long. */
    static constexpr double kNominalChunkSeconds = 1.0e-3;

    /** Host time between chunks. */
    static constexpr double kInterval = 0.025;

  private:
    double runChunk();

    std::vector<std::uint32_t> _next;  //!< random cyclic permutation
    std::unordered_map<std::uint64_t, std::uint64_t> _map;
    std::vector<std::uint64_t> _heap;
    std::uint64_t _rng = 88172645463325252ull;
    std::uint32_t _cursor = 0;
    std::uint64_t _sink = 0;
    std::chrono::steady_clock::time_point _last;
    double _chunkSeconds = 0;
    std::uint64_t _chunks = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
