/**
 * @file
 * OS log-space service (Section IV-E).
 *
 * The OS statically reserves log pages behind every memory controller
 * and guarantees no virtual page maps onto them. When a controller's
 * mapped buckets are exhausted (log overflow), the LogM interrupts the
 * OS, which -- after an interrupt-handling latency -- maps additional
 * log pages for that controller. Grants are serialized per controller,
 * as a real interrupt handler would be.
 */

#ifndef ATOMSIM_OS_LOG_SPACE_HH
#define ATOMSIM_OS_LOG_SPACE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** The OS side of ATOM's log-space management. */
class LogSpace
{
  public:
    LogSpace(EventQueue &eq, const SystemConfig &cfg, StatSet &stats);

    /**
     * Log overflow interrupt from controller @p mc: map more buckets.
     * @p granted runs after the interrupt latency with the number of
     * extra buckets mapped (0 when the hardware capacity is exhausted,
     * in which case the caller must wait for truncations).
     */
    void requestMoreBuckets(McId mc,
                            std::function<void(std::uint32_t)> granted);

    /** Buckets handed out per grant. */
    std::uint32_t grantSize() const { return _grantSize; }

    std::uint64_t overflowInterrupts() const
    {
        return _statInterrupts.value();
    }

  private:
    /** Interrupt handling for @p mc finished: hand out the grant. */
    void grant(McId mc);

    EventQueue &_eq;
    Cycles _latency;
    std::uint32_t _grantSize;
    std::vector<bool> _busy;  //!< per MC: interrupt being serviced
    std::vector<std::deque<std::function<void(std::uint32_t)>>> _pending;
    /** One recurring interrupt-completion event per controller. */
    std::vector<std::unique_ptr<TickEvent>> _grantEvents;

    Counter &_statInterrupts;
};

} // namespace atomsim

#endif // ATOMSIM_OS_LOG_SPACE_HH
