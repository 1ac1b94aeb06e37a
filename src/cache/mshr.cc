#include "cache/mshr.hh"

#include "sim/logging.hh"

namespace atomsim
{

MshrTable::MshrTable(std::uint32_t entries) : _entries(entries) {}

MshrTable::~MshrTable() = default;

MshrTable::Entry *
MshrTable::find(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    for (Entry &e : _entries) {
        if (e.used && e.line == line_addr)
            return &e;
    }
    return nullptr;
}

const MshrTable::Entry *
MshrTable::find(Addr line_addr) const
{
    return const_cast<MshrTable *>(this)->find(line_addr);
}

bool
MshrTable::has(Addr line_addr) const
{
    return find(line_addr) != nullptr;
}

void
MshrTable::releaseWaiter(Waiter *w)
{
    w->fn = nullptr;
    _pool.release(w);
}

void
MshrTable::allocate(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    panic_if(find(line_addr), "MSHR already allocated for line");
    panic_if(full(), "MSHR table full");
    for (Entry &e : _entries) {
        if (!e.used) {
            e.used = true;
            e.line = line_addr;
            ++_active;
            return;
        }
    }
    panic("MSHR allocate: no free entry despite !full()");
}

void
MshrTable::addWaiter(Addr line_addr, Continuation &&fn)
{
    Entry *e = find(line_addr);
    panic_if(!e, "no MSHR for line");
    Waiter *w = _pool.acquire();
    w->fn = std::move(fn);
    e->waiters.push_back(w);
}

MshrTable::Waiter *
MshrTable::complete(Addr line_addr)
{
    Entry *e = find(line_addr);
    panic_if(!e, "completing a miss with no MSHR");
    WaiterFifo chain = e->waiters.take();
    e->used = false;
    --_active;

    // An entry freed: admit one queued overflow request, after the
    // line's own waiters.
    if (!_overflow.empty()) {
        chain.push_back(_overflow.pop_front());
        --_overflowCount;
    }
    return chain.front();
}

MshrTable::Waiter *
MshrTable::runAndPop(Waiter *w)
{
    Waiter *next = WaiterFifo::next(w);
    w->fn();
    releaseWaiter(w);
    return next;
}

void
MshrTable::queueForFree(Continuation &&fn)
{
    Waiter *w = _pool.acquire();
    w->fn = std::move(fn);
    _overflow.push_back(w);
    ++_overflowCount;
}

} // namespace atomsim
