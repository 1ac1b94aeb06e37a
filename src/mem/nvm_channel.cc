#include "mem/nvm_channel.hh"

#include <algorithm>

#include "sim/fault.hh"

namespace atomsim
{

NvmChannel::NvmChannel(EventQueue &eq, const SystemConfig &cfg,
                       std::uint64_t stream)
    : _eq(eq),
      _transferCycles(cfg.lineTransferCycles()),
      _readLatency(cfg.nvmReadLatency),
      _writeLatency(cfg.nvmWriteLatency),
      _errorPer64k(cfg.mediaErrorPer64k),
      _retryLimit(cfg.mediaRetryLimit),
      _retryBackoff(cfg.mediaRetryBackoff),
      _faultSeed(cfg.faultSeed),
      _stream(stream)
{
}

Tick
NvmChannel::grant()
{
    const Tick start = std::max(_eq.now(), _busyUntil);
    _busyUntil = start + _transferCycles;
    _busyCycles += _transferCycles;
    return _busyUntil;
}

Tick
NvmChannel::scheduleRead()
{
    ++_reads;
    return grant() + _readLatency;
}

NvmChannel::ReadGrant
NvmChannel::scheduleReadFaulty(Addr addr)
{
    ReadGrant g;
    const std::uint64_t idx = ++_reads;
    g.ready = grant() + _readLatency;
    if (_errorPer64k == 0)
        return g;

    // Attempt 0 is the initial device read; each failed attempt is
    // retried (re-occupying the channel, plus backoff) until one
    // succeeds or the bounded retries run out. The per-attempt
    // verdict hashes only deterministic keys.
    for (std::uint32_t attempt = 0;; ++attempt) {
        const bool fails =
            faultMix(_faultSeed, _stream, addr, (idx << 8) | attempt) %
                65536 <
            _errorPer64k;
        if (!fails)
            break;
        if (attempt == _retryLimit) {
            g.hardFail = true;
            break;
        }
        ++g.retries;
        g.ready = grant() + _readLatency + _retryBackoff;
    }
    return g;
}

Tick
NvmChannel::scheduleWrite()
{
    ++_writes;
    return grant() + _writeLatency;
}

} // namespace atomsim
