/**
 * @file
 * Banked DRAM device timing model for the hybrid memory subsystem.
 *
 * One device per memory controller, sitting in front of the NVM
 * channel when SystemConfig::hybridMode != NvmOnly. The model captures
 * the first-order DRAM effects that distinguish it from the flat NVM
 * channel (mem/nvm_channel.hh):
 *
 *  - per-bank busy reservations: accesses to different banks pipeline,
 *    accesses to the same bank serialize;
 *  - an open row buffer per bank: an access to the currently open row
 *    completes at dramRowHitLatency, any other row pays the
 *    precharge + activate cost (dramRowMissLatency) and opens its row;
 *  - a shared data bus occupied dramTransferCycles() per 64-byte line.
 *
 * Scheduling is FR-FCFS-lite over a pooled intrusive request list: the
 * picker prefers the oldest request that hits an open row in a free
 * bank, then the oldest request whose bank is free. Requests and their
 * continuations are pooled (FreeListPool / InplaceCallback), so the
 * steady-state access path performs no heap allocation -- the same
 * discipline as every other hot path in the tree.
 */

#ifndef ATOMSIM_MEM_DRAM_DEVICE_HH
#define ATOMSIM_MEM_DRAM_DEVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** One controller's DRAM device array (banks + row buffers + bus). */
class DramDevice
{
  public:
    /** Completion continuation; capacity fits the controller's pooled
     * DRAM-op capture (a this pointer and a node pointer). */
    using Callback = InplaceCallback<16>;

    /**
     * @param eq    the owning controller's event queue
     * @param cfg   system configuration (bank/row/latency knobs)
     * @param row_hits / row_misses  stat counters (owned by caller)
     */
    DramDevice(EventQueue &eq, const SystemConfig &cfg,
               Counter &row_hits, Counter &row_misses);

    /**
     * Queue one 64-byte access. @p ready is the earliest tick the
     * request may issue (the controller front-end latency); @p done
     * runs when the access completes at the device.
     */
    void access(Addr addr, bool is_write, Tick ready, Callback done);

    /** Pooled request nodes ever allocated (high-water mark). */
    std::size_t poolAllocated() const { return _pool.allocated(); }

    /** Pooled request nodes currently idle. */
    std::size_t poolFree() const { return _pool.idle(); }

    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }

    /** Busy cycles accumulated on the data bus (utilization stats). */
    std::uint64_t busCycles() const { return _busCycles; }

  private:
    /** One queued access: a pooled intrusive node. */
    struct Req
    {
        Req *next = nullptr;
        Addr addr = 0;
        bool isWrite = false;
        Tick readyAt = 0;
        Callback done;
    };

    struct Bank
    {
        Tick busyUntil = 0;
        Addr openRow = ~Addr(0);  //!< no row open initially
    };

    std::uint32_t bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;

    /** Issue every ready request a free bank can take; reschedule the
     * pick event for the earliest future readiness otherwise. */
    void pick();

    /** Unlink @p req and issue it. */
    void issue(Req *req);

    EventQueue &_eq;
    const SystemConfig &_cfg;
    const Cycles _transferCycles;

    std::vector<Bank> _banks;
    IntrusiveFifo<Req> _queue;  //!< arrival order
    FreeListPool<Req> _pool;
    std::unique_ptr<TickEvent> _pickEvent;

    Tick _busBusyUntil = 0;
    std::uint64_t _busCycles = 0;
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;

    Counter &_statRowHits;
    Counter &_statRowMisses;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_DRAM_DEVICE_HH
