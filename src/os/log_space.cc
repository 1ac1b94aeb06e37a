#include "os/log_space.hh"

namespace atomsim
{

LogSpace::LogSpace(EventQueue &eq, const SystemConfig &cfg, StatSet &stats)
    : _eq(eq),
      _latency(cfg.osOverflowLatency),
      _grantSize(std::max<std::uint32_t>(1, cfg.bucketsPerMc / 16)),
      _busy(cfg.numMemCtrls, false),
      _pending(cfg.numMemCtrls),
      _statInterrupts(stats.counter("os", "log_overflow_interrupts"))
{
    _grantEvents.reserve(cfg.numMemCtrls);
    for (McId mc = 0; mc < cfg.numMemCtrls; ++mc) {
        _grantEvents.push_back(std::make_unique<TickEvent>(
            [this, mc] { grant(mc); }, "os.grant"));
    }
}

void
LogSpace::requestMoreBuckets(McId mc,
                             std::function<void(std::uint32_t)> granted)
{
    _pending[mc].push_back(std::move(granted));
    if (_busy[mc])
        return;
    _busy[mc] = true;
    _statInterrupts.inc();
    _eq.scheduleIn(*_grantEvents[mc], _latency);
}

void
LogSpace::grant(McId mc)
{
    _busy[mc] = false;
    auto waiters = std::move(_pending[mc]);
    _pending[mc].clear();
    for (auto &w : waiters)
        w(_grantSize);
}

} // namespace atomsim
