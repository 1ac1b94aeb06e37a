#include "cache/l1_cache.hh"

#include <cstring>

#include "cache/l2_cache.hh"
#include "sim/logging.hh"

namespace atomsim
{

L1Cache::L1Cache(CoreId core, EventQueue &eq, const SystemConfig &cfg,
                 Mesh &mesh, const AddressMap &amap,
                 std::vector<std::unique_ptr<L2Tile>> &tiles,
                 StatSet &stats)
    : _core(core),
      _eq(eq),
      _cfg(cfg),
      _mesh(mesh),
      _amap(amap),
      _tiles(tiles),
      _array(cfg.l1SizeBytes, cfg.l1Assoc),
      _mshrs(cfg.mshrs),
      _statLoads(stats.counter("l1c" + std::to_string(core), "loads")),
      _statStores(stats.counter("l1c" + std::to_string(core), "stores")),
      _statLoadMisses(
          stats.counter("l1c" + std::to_string(core), "load_misses")),
      _statStoreMisses(
          stats.counter("l1c" + std::to_string(core), "store_misses")),
      _statWritebacks(
          stats.counter("l1c" + std::to_string(core), "writebacks")),
      _statLogRequests(
          stats.counter("l1c" + std::to_string(core), "log_requests"))
{
}

L1Cache::~L1Cache() = default;

std::uint32_t
L1Cache::homeTileOf(Addr addr) const
{
    return _amap.homeTile(addr);
}

std::uint32_t
L1Cache::myNode() const
{
    return _mesh.coreNode(_core);
}

void
L1Cache::releaseStore(PendingStore *ps)
{
    ps->done = nullptr;
    _storePool.release(ps);
}

void
L1Cache::releaseFlush(PendingFlush *pf)
{
    pf->done = nullptr;
    _flushPool.release(pf);
}

void
L1Cache::evictFrame(CacheLineState *frame)
{
    if (!frame->valid)
        return;
    const Addr vaddr = frame->tag;
    if (frame->dirty) {
        // Split-phase writeback: park the data in the writeback buffer
        // (freed by the home's WbAck) and ship a real PutM through the
        // mesh. Point-to-point FIFO ordering guarantees the PutM
        // reaches the home before any later request we send for the
        // same line; a recall crossing it in the other direction is
        // served from the buffer and the stale PutM dropped at home.
        _statWritebacks.inc();
        PendingPutM *wb = _wbPool.acquire();
        wb->line = vaddr;
        wb->data = frame->data;
        _wbs.push_back(wb);
        ++_wbCount;

        const std::uint32_t home = homeTileOf(vaddr);
        Packet &p = _mesh.make(MsgType::PutM);
        p.receiver = _tiles[home].get();
        p.core = _core;
        p.addr = vaddr;
        p.data = frame->data;
        _mesh.send(myNode(), _mesh.tileNode(home), p);
    }
    // Clean lines drop silently; the log bit is volatile and is lost
    // with the line (the paper re-logs on the next write; recovery
    // applies undo records newest-first so duplicates are safe).
    frame->reset();
}

L1Cache::PendingPutM *
L1Cache::findWb(Addr line)
{
    // Newest entry wins: with two writebacks of the same line in
    // flight, only the younger one carries current data.
    PendingPutM *hit = nullptr;
    for (PendingPutM *wb = _wbs.front(); wb; wb = _wbs.next(wb)) {
        if (wb->line == line)
            hit = wb;
    }
    return hit;
}

void
L1Cache::wbAcked(Addr line)
{
    // Free the *oldest* matching entry: WbAcks return in PutM order
    // (per-line FIFO through the home tile).
    PendingPutM *wb =
        _wbs.find([line](const PendingPutM &w) { return w.line == line; });
    panic_if(!wb, "WbAck for a line with no writeback in flight");
    _wbs.remove(wb);
    --_wbCount;
    _wbPool.release(wb);
}

void
L1Cache::startMiss(Addr addr, bool exclusive,
                   MshrTable::Continuation &&retry)
{
    const Addr line = lineAlign(addr);
    if (_mshrs.has(line)) {
        _mshrs.addWaiter(line, std::move(retry));
        return;
    }
    if (_mshrs.full()) {
        // Structural stall: re-attempt the whole access when an MSHR
        // frees up.
        _mshrs.queueForFree(std::move(retry));
        return;
    }
    _mshrs.allocate(line);
    _mshrs.addWaiter(line, std::move(retry));

    const std::uint32_t home = homeTileOf(line);
    const bool in_atomic = _logger && _logger->inAtomic(_core);

    // Upgrade when we already hold the line Shared.
    CacheLineState *frame = _array.find(line);
    const bool upgrade = !exclusive ? false
                         : (frame && frame->valid &&
                            frame->state == CoherenceState::Shared);

    MsgType req = exclusive ? (upgrade ? MsgType::Upgrade : MsgType::GetX)
                            : MsgType::GetS;
    Packet &p = _mesh.make(req);
    p.receiver = _tiles[home].get();
    p.core = _core;
    p.addr = line;
    p.flag = in_atomic;
    _mesh.send(myNode(), _mesh.tileNode(home), p);
}

void
L1Cache::meshDeliver(Packet &pkt)
{
    switch (pkt.type) {
      case MsgType::Data:
      case MsgType::DataExcl:
      case MsgType::DataLogged: {
        const FillResult result{pkt.data, pkt.grant, pkt.logged};
        fillArrived(pkt.addr, result);
        return;
      }
      case MsgType::FlushAck:
        flushAcked(pkt.addr);
        return;
      case MsgType::Inv:
        handleInv(pkt.addr);
        return;
      case MsgType::Recall:
        handleRecall(pkt.addr);
        return;
      case MsgType::FwdGetS:
        handleFwdGetS(pkt.core, pkt.addr);
        return;
      case MsgType::FwdGetX:
        handleFwdGetX(pkt.core, pkt.addr);
        return;
      case MsgType::WbAck:
        wbAcked(pkt.addr);
        return;
      default:
        panic("L1 %u: unexpected mesh message %s", _core,
              msgName(pkt.type));
    }
}

void
L1Cache::handleInv(Addr line)
{
    invalidateLine(line);
    const std::uint32_t home = homeTileOf(line);
    Packet &p = _mesh.make(MsgType::InvAck);
    p.receiver = _tiles[home].get();
    p.core = _core;
    p.addr = line;
    _mesh.send(myNode(), _mesh.tileNode(home), p);
}

void
L1Cache::handleRecall(Addr line)
{
    const std::uint32_t home = homeTileOf(line);
    Packet &p = _mesh.make(MsgType::RecallAck);
    p.receiver = _tiles[home].get();
    p.core = _core;
    p.addr = line;
    if (auto got = surrenderLine(line)) {
        p.flag = true;
        p.dirty = got->second;
        p.data = got->first;
    }
    _mesh.send(myNode(), _mesh.tileNode(home), p);
}

void
L1Cache::handleFwdGetS(CoreId requester, Addr line)
{
    // Downgrade our copy in place (log bit survives: the line is still
    // logged for this atomic update even if another core reads it)
    // and ship whatever we had back home. The *home* grants the
    // requester: every grant and every revocation for a line then
    // travels on the single home->L1 pair, whose point-to-point FIFO
    // makes a revocation overtaking an in-flight grant impossible --
    // with owner->requester direct data there is no such ordering.
    bool has = false;
    bool was_dirty = false;
    Line data{};
    if (CacheLineState *frame = _array.find(line);
        frame && frame->valid) {
        has = true;
        was_dirty = frame->dirty;
        data = frame->data;
        frame->state = CoherenceState::Shared;
        frame->dirty = false;
    } else if (PendingPutM *wb = findWb(line)) {
        // Our PutM is still in flight; answer from the buffer (the
        // home drops the stale PutM when it lands).
        has = true;
        was_dirty = true;
        data = wb->data;
    }

    const std::uint32_t home = homeTileOf(line);
    Packet &a = _mesh.make(MsgType::FwdAckS);
    a.receiver = _tiles[home].get();
    a.core = requester;
    a.arg = _core;  // the (former) owner
    a.addr = line;
    a.flag = has;
    a.dirty = was_dirty;
    a.data = data;
    _mesh.send(myNode(), _mesh.tileNode(home), a);
}

void
L1Cache::handleFwdGetX(CoreId requester, Addr line)
{
    // Defer while we have an outstanding log request for the line (a
    // real controller NACKs the forward; stealing mid-log forces
    // re-logs that convoy on contended lines). As with FwdGetS, the
    // surrendered copy goes home and the home grants the requester
    // (see handleFwdGetS for why).
    whenUnpinned(line, [this, requester, line] {
        bool has = false;
        bool was_dirty = false;
        Line data{};
        if (auto got = surrenderLine(line)) {
            has = true;
            was_dirty = got->second;
            data = got->first;
        }

        const std::uint32_t home = homeTileOf(line);
        Packet &a = _mesh.make(MsgType::FwdAckX);
        a.receiver = _tiles[home].get();
        a.core = requester;
        a.arg = _core;
        a.addr = line;
        a.flag = has;
        a.dirty = was_dirty;
        a.data = data;
        _mesh.send(myNode(), _mesh.tileNode(home), a);
    });
}

void
L1Cache::fillArrived(Addr addr, const FillResult &result)
{
    const Addr line = lineAlign(addr);
    CacheLineState *frame = _array.find(line);
    if (!frame) {
        frame = _array.victim(line);
        evictFrame(frame);
        _array.install(frame, line);
        frame->data = result.data;
    } else {
        // Upgrade fill: keep our copy only if we stayed Shared; an
        // invalidation may have raced the upgrade, making the response
        // data authoritative.
        if (frame->state == CoherenceState::Invalid || !frame->valid)
            frame->data = result.data;
        _array.touch(line);
    }
    frame->valid = true;
    frame->state = result.grant;
    if (result.logged)
        frame->logBit = true;

    for (MshrTable::Waiter *w = _mshrs.complete(line); w;)
        w = _mshrs.runAndPop(w);
}

void
L1Cache::load(Addr addr, Callback &&done)
{
    _statLoads.inc();
    _eq.postIn(_cfg.l1Latency,
               [this, addr, done = std::move(done)]() mutable {
        CacheLineState *frame = _array.touch(addr);
        if (frame && frame->valid) {
            done();
            return;
        }
        _statLoadMisses.inc();
        startMiss(addr, false,
                  [this, addr, done = std::move(done)]() mutable {
                      // Line present now (fills run waiters right after
                      // install); complete the load.
                      CacheLineState *fr = _array.touch(addr);
                      if (fr && fr->valid) {
                          done();
                      } else {
                          // Evicted before we ran: retry from scratch.
                          load(addr, std::move(done));
                      }
                  });
    });
}

void
L1Cache::store(Addr addr, const std::uint8_t *bytes, std::uint32_t size,
               Callback &&done)
{
    panic_if(lineAlign(addr) != lineAlign(addr + size - 1),
             "store spans a line boundary (addr %llx size %u)",
             (unsigned long long)addr, size);
    panic_if(size > kLineBytes, "store larger than a line");
    _statStores.inc();
    PendingStore *ps = _storePool.acquire();
    ps->addr = addr;
    ps->size = size;
    std::memcpy(ps->bytes.data(), bytes, size);
    ps->done = std::move(done);
    _eq.postIn(_cfg.l1Latency, [this, ps] { finishStore(ps); });
}

void
L1Cache::finishStore(PendingStore *ps)
{
    CacheLineState *frame = _array.touch(ps->addr);
    if (!frame || !frame->valid || !frame->writable()) {
        _statStoreMisses.inc();
        startMiss(ps->addr, true, [this, ps] { finishStore(ps); });
        return;
    }

    if (_logger) {
        const auto mode = _logger->mode();
        if (mode == StoreLogger::Mode::Undo && _logger->inAtomic(_core) &&
            !frame->logBit) {
            // Invariant 1: create the undo entry before the store
            // modifies the line. The pre-store value is the line's
            // current content. The line stays pinned while the log
            // request is outstanding so replacement cannot evict it
            // and force a wasteful refetch + duplicate log entry.
            _statLogRequests.inc();
            frame->pinned = true;
            const Line old_value = frame->data;
            const Addr line = lineAlign(ps->addr);
            _logger->onFirstWrite(_core, line, old_value,
                                  [this, ps] { storeLogged(ps); });
            return;
        }
        if (mode == StoreLogger::Mode::Redo && _logger->inAtomic(_core)) {
            _statLogRequests.inc();
            // The frame holds write permission right now, so its data
            // is the line's coherent pre-store image -- the logger
            // captures it here (merging the store's bytes) rather
            // than chasing the line through the hierarchy later.
            _logger->onStore(_core, lineAlign(ps->addr), frame->data,
                             std::uint32_t(ps->addr - frame->tag),
                             ps->bytes.data(), ps->size,
                             [this, ps] { applyStore(ps, false); });
            return;
        }
    }
    applyStore(ps, false);
}

void
L1Cache::storeLogged(PendingStore *ps)
{
    const Addr line = lineAlign(ps->addr);
    if (CacheLineState *fr = _array.find(line))
        fr->pinned = false;
    applyStore(ps, true);
    // The store has applied: run the coherence action deferred by the
    // pin, if any.
    if (Callback *deferred = _unpinWaiters.find(line)) {
        Callback action = std::move(*deferred);
        _unpinWaiters.erase(line);
        action();
    }
}

void
L1Cache::applyStore(PendingStore *ps, bool set_log_bit)
{
    // Re-find: the frame may have moved/evicted while logging.
    CacheLineState *fr = _array.find(ps->addr);
    if (!fr || !fr->valid || !fr->writable()) {
        // Lost permission while waiting on the logger (rare): the
        // log entry exists, so redo the access. The fresh log request
        // that may result is matched against the AUS's already-logged
        // lines at the LogM and acked without a new entry -- were it
        // appended instead, a store thrashing against recalls would
        // seal a one-entry record per retry until the log region ran
        // out, wedging the machine in the overflow interrupt.
        finishStore(ps);
        return;
    }
    const std::size_t off = ps->addr - fr->tag;
    std::memcpy(fr->data.data() + off, ps->bytes.data(), ps->size);
    fr->state = CoherenceState::Modified;
    fr->dirty = true;
    if (set_log_bit)
        fr->logBit = true;
    Callback done = std::move(ps->done);
    releaseStore(ps);
    done();
}

void
L1Cache::flush(Addr addr, Callback &&done)
{
    const Addr line = lineAlign(addr);
    _eq.postIn(_cfg.l1Latency,
               [this, line, done = std::move(done)]() mutable {
        CacheLineState *frame = _array.find(line);
        bool has_data = false;
        Line data{};
        if (frame && frame->valid && frame->dirty) {
            has_data = true;
            data = frame->data;
            frame->dirty = false;   // NVM will hold this value
            frame->logBit = false;  // durably written: clear log bit
        } else if (frame && frame->valid) {
            frame->logBit = false;
        }
        // Park the completion; the home tile's FlushAck resumes it.
        PendingFlush *pf = _flushPool.acquire();
        pf->line = line;
        pf->done = std::move(done);
        _flushes.push_back(pf);

        const std::uint32_t home = homeTileOf(line);
        Packet &p = _mesh.make(has_data ? MsgType::FlushReq
                                        : MsgType::Ctrl);
        p.receiver = _tiles[home].get();
        p.core = _core;
        p.addr = line;
        p.flag = has_data;
        p.data = data;
        _mesh.send(myNode(), _mesh.tileNode(home), p);
    });
}

void
L1Cache::flushAcked(Addr line)
{
    PendingFlush *pf = _flushes.find(
        [line](const PendingFlush &f) { return f.line == line; });
    panic_if(!pf, "FlushAck for a line with no outstanding flush");
    _flushes.remove(pf);
    Callback done = std::move(pf->done);
    releaseFlush(pf);
    done();
}

void
L1Cache::whenUnpinned(Addr addr, Callback action)
{
    const Addr line = lineAlign(addr);
    CacheLineState *frame = _array.find(line);
    if (frame && frame->valid && frame->pinned) {
        auto [slot, fresh] = _unpinWaiters.tryEmplace(line);
        panic_if(!fresh, "second deferred action on pinned line %llx",
                 (unsigned long long)line);
        *slot = std::move(action);
        return;
    }
    action();
}

std::optional<std::pair<Line, bool>>
L1Cache::surrenderLine(Addr addr)
{
    CacheLineState *frame = _array.find(addr);
    if (frame && frame->valid) {
        auto result = std::make_pair(frame->data, frame->dirty);
        frame->reset();
        return result;
    }
    // Not resident -- but a writeback of it may still be in flight, in
    // which case the buffered copy is the authoritative one (the home
    // will drop the stale PutM when it lands).
    if (PendingPutM *wb = findWb(addr))
        return std::make_pair(wb->data, true);
    return std::nullopt;
}

void
L1Cache::invalidateLine(Addr addr)
{
    CacheLineState *frame = _array.find(addr);
    if (frame && frame->valid)
        frame->reset();
}

} // namespace atomsim
