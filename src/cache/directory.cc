#include "cache/directory.hh"

#include "sim/logging.hh"

namespace atomsim
{

DirEntry &
Directory::entry(Addr line_addr)
{
    return _entries[lineAlign(line_addr)];
}

DirEntry *
Directory::find(Addr line_addr)
{
    return _entries.find(lineAlign(line_addr));
}

void
Directory::erase(Addr line_addr)
{
    _entries.erase(lineAlign(line_addr));
}

void
Directory::releaseWaiter(Waiter *w)
{
    w->fn = nullptr;
    _pool.release(w);
}

void
Directory::acquire(Addr line_addr, Txn &&txn)
{
    line_addr = lineAlign(line_addr);
    auto [ctl, inserted] = _ctl.tryEmplace(line_addr);
    if (!inserted) {
        // Busy: queue behind the running transaction.
        Waiter *w = _pool.acquire();
        w->fn = std::move(txn);
        ctl->push_back(w);
        return;
    }
    if (_liveHw && _ctl.size() > _liveHwSeen) {
        _liveHwSeen = _ctl.size();
        _liveHw->set(_liveHwSeen);
    }
    txn();
}

void
Directory::release(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    LineCtl *ctl = _ctl.find(line_addr);
    panic_if(!ctl, "release of a line that is not busy");
    if (ctl->empty()) {
        _ctl.erase(line_addr);
        return;
    }
    Waiter *w = ctl->pop_front();
    Txn next = std::move(w->fn);
    releaseWaiter(w);
    next();  // stays busy; next transaction owns the line now
}

bool
Directory::busy(Addr line_addr) const
{
    return _ctl.contains(lineAlign(line_addr));
}

} // namespace atomsim
