#include "atom/aus.hh"

#include "sim/logging.hh"

namespace atomsim
{

AusPool::AusPool(EventQueue &eq, std::uint32_t slots, std::uint32_t cores,
                 StatSet &stats)
    : _eq(eq),
      _slotOf(cores, -1),
      _slotBusy(slots, false),
      _statStallCycles(stats.counter("aus", "structural_stall_cycles")),
      _statAcquires(stats.counter("aus", "acquires"))
{
}

void
AusPool::grant(CoreId core, std::uint32_t slot, Granted &granted)
{
    _slotOf[core] = int(slot);
    _statAcquires.inc();
    if (!_tenantAcquires.empty())
        _tenantAcquires[core]->inc();
    granted(slot);
}

void
AusPool::acquire(CoreId core, Granted granted)
{
    panic_if(_slotOf[core] >= 0, "core %u already holds an AUS", core);
    for (std::uint32_t s = 0; s < _slotBusy.size(); ++s) {
        if (!_slotBusy[s]) {
            _slotBusy[s] = true;
            grant(core, s, granted);
            return;
        }
    }
    // Structural overflow: wait for a slot (Section IV-E).
    _waiters.push_back(Waiter{_eq.now(), core, std::move(granted)});
}

void
AusPool::release(CoreId core)
{
    const int slot = _slotOf[core];
    panic_if(slot < 0, "core %u releases no AUS", core);
    _slotOf[core] = -1;

    if (_waiters.empty()) {
        _slotBusy[std::size_t(slot)] = false;
        return;
    }
    Waiter w = std::move(_waiters.front());
    _waiters.pop_front();
    _statStallCycles.inc(_eq.now() - w.since);
    grant(w.core, std::uint32_t(slot), w.granted);
}

} // namespace atomsim
