#include "mem/dram_device.hh"

#include <algorithm>

namespace atomsim
{

DramDevice::DramDevice(EventQueue &eq, const SystemConfig &cfg,
                       Counter &row_hits, Counter &row_misses)
    : _eq(eq),
      _cfg(cfg),
      _transferCycles(cfg.dramTransferCycles()),
      _banks(cfg.dramBanksPerMc),
      _statRowHits(row_hits),
      _statRowMisses(row_misses)
{
    _pickEvent = std::make_unique<TickEvent>([this] { pick(); });
}

std::uint32_t
DramDevice::bankOf(Addr addr) const
{
    // Consecutive rows stripe across banks, so streaming accesses
    // pipeline while same-row accesses stay in one bank's row buffer.
    return std::uint32_t((addr / _cfg.dramRowBytes) %
                         _banks.size());
}

Addr
DramDevice::rowOf(Addr addr) const
{
    return addr / _cfg.dramRowBytes;
}

void
DramDevice::access(Addr addr, bool is_write, Tick ready, Callback done)
{
    Req *req = _pool.acquire();
    req->addr = lineAlign(addr);
    req->isWrite = is_write;
    req->readyAt = std::max(ready, _eq.now());
    req->done = std::move(done);
    _queue.push_back(req);

    if (!_pickEvent->scheduled())
        _eq.schedule(*_pickEvent, req->readyAt);
    else if (_pickEvent->when() > req->readyAt)
        _eq.reschedule(*_pickEvent, req->readyAt);
}

void
DramDevice::issue(Req *req)
{
    _queue.remove(req);

    Bank &bank = _banks[bankOf(req->addr)];
    const Addr row = rowOf(req->addr);
    const bool row_hit = bank.openRow == row;
    if (row_hit)
        _statRowHits.inc();
    else
        _statRowMisses.inc();
    bank.openRow = row;

    // The data bus serializes transfers; the bank then holds the
    // access for the row latency (hit or precharge+activate+access).
    const Tick start = std::max(_eq.now(), _busBusyUntil);
    _busBusyUntil = start + _transferCycles;
    _busCycles += _transferCycles;
    const Cycles lat = row_hit ? _cfg.dramRowHitLatency
                               : _cfg.dramRowMissLatency;
    const Tick done_at = start + _transferCycles + lat;
    bank.busyUntil = done_at;

    if (req->isWrite)
        ++_writes;
    else
        ++_reads;

    Callback done = std::move(req->done);
    req->done = nullptr;
    _pool.release(req);
    _eq.post(done_at, [done = std::move(done)]() mutable { done(); });
}

void
DramDevice::pick()
{
    const Tick now = _eq.now();

    // FR-FCFS-lite, restartable: issue as many ready requests as free
    // banks allow, row hits first (oldest hit wins), then oldest
    // ready-with-free-bank. Rescan after every issue -- issuing moves
    // bus/bank state, and the list is short (bounded by the MC's
    // outstanding DRAM ops).
    for (;;) {
        Req *hit = nullptr;
        Req *any = nullptr;
        for (Req *r = _queue.front(); r; r = _queue.next(r)) {
            if (r->readyAt > now)
                continue;
            const Bank &bank = _banks[bankOf(r->addr)];
            if (bank.busyUntil > now)
                continue;
            if (!any)
                any = r;
            if (!hit && bank.openRow == rowOf(r->addr))
                hit = r;
        }
        Req *chosen = hit ? hit : any;
        if (!chosen)
            break;
        issue(chosen);
    }

    if (_queue.empty())
        return;

    // Nothing issuable now: wake at the earliest readiness or bank
    // release among the still-queued requests.
    Tick wake = kTickNever;
    for (Req *r = _queue.front(); r; r = _queue.next(r)) {
        const Tick bank_free = _banks[bankOf(r->addr)].busyUntil;
        wake = std::min(wake, std::max(r->readyAt, bank_free));
    }
    if (!_pickEvent->scheduled())
        _eq.schedule(*_pickEvent, std::max(wake, now + 1));
}

} // namespace atomsim
