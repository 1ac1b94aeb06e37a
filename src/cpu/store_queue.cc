#include "cpu/store_queue.hh"

#include "cache/l1_cache.hh"
#include "sim/logging.hh"

namespace atomsim
{

StoreQueue::StoreQueue(CoreId core, EventQueue &eq, std::uint32_t entries,
                       std::uint32_t drain_width, L1Cache &l1,
                       StatSet &stats)
    : _core(core),
      _eq(eq),
      _drainWidth(std::max<std::uint32_t>(1, drain_width)),
      _l1(l1),
      _ring(entries),
      _statFullCycles(
          stats.counter("core" + std::to_string(core), "sq_full_cycles")),
      _statRetired(
          stats.counter("core" + std::to_string(core), "stores_retired"))
{
}

void
StoreQueue::push(const MemOp &store, Callback &&accepted)
{
    panic_if(store.kind != OpKind::Store, "SQ push of a %s op",
             opName(store.kind));
    if (_count == _ring.size()) {
        // SQ full: the pipeline stalls until retirement frees an entry.
        Parked *p = _parkedPool.acquire();
        p->since = _eq.now();
        p->store = store;
        p->cb = std::move(accepted);
        _full.push_back(p);
        return;
    }
    Entry &e = _ring[slotOf(_count)];
    e.store = store;
    e.issued = false;
    e.done = false;
    ++_count;
    accepted();
    pump();
}

void
StoreQueue::pump()
{
    // Issue stores (in order) up to the drain width; entries dequeue
    // strictly in order as the oldest ones complete. A store may not
    // issue while an older in-flight store targets the same line:
    // completions are out of order, and same-line stores must apply
    // in program order.
    for (std::size_t i = 0; i < _count && _issued < _drainWidth; ++i) {
        const std::size_t slot = slotOf(i);
        Entry &entry = _ring[slot];
        if (entry.issued)
            continue;
        const Addr line = lineAlign(entry.store.addr);
        bool conflict = false;
        for (std::size_t j = 0; j < i && !conflict; ++j) {
            const Entry &older = _ring[slotOf(j)];
            conflict = older.issued && !older.done &&
                       lineAlign(older.store.addr) == line;
        }
        if (conflict)
            continue;
        entry.issued = true;
        ++_issued;
        // A slot is reused only after its store retires, so the slot
        // index names this store until its completion runs.
        _l1.store(entry.store.addr, entry.store.payloadBytes(),
                  entry.store.size, [this, slot] {
                      _ring[slot].done = true;
                      --_issued;
                      retireCompleted();
                  });
    }
}

void
StoreQueue::retireCompleted()
{
    while (_count > 0 && _ring[_head].done) {
        _head = slotOf(1);
        --_count;
        _statRetired.inc();
        if (!_full.empty()) {
            Parked *p = _full.pop_front();
            _statFullCycles.inc(_eq.now() - p->since);
            const MemOp store = p->store;
            Callback accepted = std::move(p->cb);
            _parkedPool.release(p);
            push(store, std::move(accepted));
        }
    }
    pump();
    if (empty()) {
        // Fire in registration order; a waiter registered meanwhile
        // waits for the next drain.
        for (auto waiters = _drain.take(); !waiters.empty();) {
            Parked *p = waiters.pop_front();
            Callback cb = std::move(p->cb);
            _parkedPool.release(p);
            cb();
        }
    }
}

void
StoreQueue::whenEmpty(Callback cb)
{
    if (empty()) {
        cb();
        return;
    }
    Parked *p = _parkedPool.acquire();
    p->cb = std::move(cb);
    _drain.push_back(p);
}

bool
StoreQueue::holdsLine(Addr addr) const
{
    const Addr line = lineAlign(addr);
    for (std::size_t i = 0; i < _count; ++i) {
        if (lineAlign(_ring[slotOf(i)].store.addr) == line)
            return true;
    }
    return false;
}

} // namespace atomsim
