/**
 * @file
 * Timing model of one NVM memory channel.
 *
 * The channel serializes 64-byte transfers at the configured peak
 * bandwidth (5.3 GB/s -> ~25 core cycles per line at 2 GHz); device
 * access latency (240-cycle reads, 360-cycle writes, i.e. 10x DRAM) is
 * pipelined across banks and therefore overlaps between requests. Peak
 * sustainable bandwidth is thus bandwidth-limited, matching Table I.
 */

#ifndef ATOMSIM_MEM_NVM_CHANNEL_HH
#define ATOMSIM_MEM_NVM_CHANNEL_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace atomsim
{

/** One memory channel: a bandwidth-serialized pipe into NVM devices. */
class NvmChannel
{
  public:
    /**
     * Outcome of one read reservation under the media-error model:
     * the tick the data is available, how many seeded error retries
     * the device absorbed first, and whether the bounded retries ran
     * out (an uncorrectable error the controller must surface).
     */
    struct ReadGrant
    {
        Tick ready = 0;
        std::uint32_t retries = 0;
        bool hardFail = false;
    };

    /**
     * @param stream distinguishes this channel's fault-injection
     *               stream from every other channel's (the owning
     *               controller passes mc * channelsPerMc + channel).
     */
    NvmChannel(EventQueue &eq, const SystemConfig &cfg,
               std::uint64_t stream = 0);

    /**
     * Reserve the channel for one 64-byte read.
     * @return absolute tick at which the data is available.
     */
    Tick scheduleRead();

    /**
     * Reserve the channel for one 64-byte read of @p addr under the
     * media-error model (SystemConfig::mediaErrorPer64k). Whether an
     * attempt fails is a pure function of (faultSeed, stream, addr,
     * per-channel read index, attempt) -- deterministic across
     * reruns. Each retry re-occupies the channel and pays
     * mediaRetryBackoff on top of the device latency. With the rate
     * at 0 (the default) this is exactly scheduleRead().
     */
    ReadGrant scheduleReadFaulty(Addr addr);

    /**
     * Reserve the channel for one 64-byte write.
     * @return absolute tick at which the write is durable in NVM.
     */
    Tick scheduleWrite();

    /** Tick at which the channel next becomes free. */
    Tick freeAt() const { return _busyUntil; }

    /** Busy cycles accumulated (for bandwidth-utilization stats). */
    std::uint64_t busyCycles() const { return _busyCycles; }

    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }

  private:
    Tick grant();

    EventQueue &_eq;
    Cycles _transferCycles;
    Cycles _readLatency;
    Cycles _writeLatency;
    std::uint32_t _errorPer64k;
    std::uint32_t _retryLimit;
    Cycles _retryBackoff;
    std::uint64_t _faultSeed;
    std::uint64_t _stream;
    Tick _busyUntil = 0;
    std::uint64_t _busyCycles = 0;
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_NVM_CHANNEL_HH
