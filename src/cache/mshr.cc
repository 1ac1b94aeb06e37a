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
            e.head = e.tail = nullptr;
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
    if (e->tail)
        e->tail->next = w;
    else
        e->head = w;
    e->tail = w;
}

MshrTable::Waiter *
MshrTable::complete(Addr line_addr)
{
    Entry *e = find(line_addr);
    panic_if(!e, "completing a miss with no MSHR");
    Waiter *chain = e->head;
    Waiter *chain_tail = e->tail;
    e->used = false;
    e->head = e->tail = nullptr;
    --_active;

    // An entry freed: admit one queued overflow request, after the
    // line's own waiters.
    if (_overflowHead) {
        Waiter *w = _overflowHead;
        _overflowHead = w->next;
        if (!_overflowHead)
            _overflowTail = nullptr;
        --_overflowCount;
        w->next = nullptr;
        if (chain_tail)
            chain_tail->next = w;
        else
            chain = w;
    }
    return chain;
}

MshrTable::Waiter *
MshrTable::runAndPop(Waiter *w)
{
    Waiter *next = w->next;
    w->fn();
    releaseWaiter(w);
    return next;
}

void
MshrTable::queueForFree(Continuation &&fn)
{
    Waiter *w = _pool.acquire();
    w->fn = std::move(fn);
    if (_overflowTail)
        _overflowTail->next = w;
    else
        _overflowHead = w;
    _overflowTail = w;
    ++_overflowCount;
}

} // namespace atomsim
