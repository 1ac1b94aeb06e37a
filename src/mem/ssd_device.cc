#include "mem/ssd_device.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "sim/logging.hh"

namespace atomsim
{

namespace fwdmap
{

std::uint32_t
rehydrate(DataImage &nvm, const AddressMap &amap, McId mc,
          const DataImage &flash)
{
    std::uint32_t restored = 0;
    std::array<std::uint8_t, kPageBytes> buf;
    for (std::uint32_t j = 0; j < amap.ssdMapPagesPerMc(); ++j) {
        const Addr base = amap.ssdMapPage(mc, j);
        for (std::uint32_t i = 0;
             i < AddressMap::kSsdEntriesPerMapPage; ++i) {
            const Addr entry = base + Addr(i) * 16;
            const auto m =
                decode(nvm.load64(entry), nvm.load64(entry + 8));
            if (!m)
                continue;
            flash.read(Addr(m->second) * kPageBytes, kPageBytes,
                       buf.data());
            nvm.write(m->first, kPageBytes, buf.data());
            nvm.store64(entry, 0);
            nvm.store64(entry + 8, 0);
            ++restored;
        }
    }
    return restored;
}

} // namespace fwdmap

// ---------------------------------------------------------------------
// SsdDevice
// ---------------------------------------------------------------------

SsdDevice::SsdDevice(McId id, EventQueue &eq, const SystemConfig &cfg,
                     StatSet &stats)
    : _id(id),
      _eq(eq),
      _cfg(cfg),
      _xferCycles(cfg.ssdPageTransferCycles()),
      _qps(cfg.ssdChannels),
      _chanFree(cfg.ssdChannels, 0),
      _dieFree(std::size_t(cfg.ssdChannels) * cfg.ssdDiesPerChannel, 0),
      _pollEvent([this] { poll(); }, "ssd_poll"),
      _statReads(stats.counter("ssd" + std::to_string(id), "reads")),
      _statPrograms(
          stats.counter("ssd" + std::to_string(id), "programs")),
      _statSqStalls(
          stats.counter("ssd" + std::to_string(id), "sq_stalls"))
{
    for (auto &qp : _qps) {
        qp.sq.assign(cfg.ssdQueueDepth, nullptr);
        qp.cq.assign(cfg.ssdQueueDepth, nullptr);
    }
}

SsdDevice::Cmd *
SsdDevice::acquireCmd()
{
    Cmd *cmd = _pool.acquire();
    cmd->isWrite = false;
    cmd->flashPage = 0;
    return cmd;
}

void
SsdDevice::releaseCmd(Cmd *cmd)
{
    cmd->done = {};
    _pool.release(cmd);
}

bool
SsdDevice::submit(std::uint32_t qp_idx, Cmd *cmd)
{
    Qp &qp = _qps[qp_idx];
    if (qp.outstanding >= _cfg.ssdQueueDepth) {
        _statSqStalls.inc();
        return false;
    }
    qp.sq[qp.sqTail] = cmd;
    qp.sqTail = (qp.sqTail + 1) % _cfg.ssdQueueDepth;
    ++qp.sqCount;
    ++qp.outstanding;
    return true;
}

void
SsdDevice::ringDoorbell(std::uint32_t)
{
    if (!_pollEvent.scheduled())
        _eq.scheduleIn(_pollEvent, _cfg.ssdPollInterval);
}

std::uint32_t
SsdDevice::totalOutstanding() const
{
    std::uint32_t n = 0;
    for (const auto &qp : _qps)
        n += qp.outstanding;
    return n;
}

void
SsdDevice::poll()
{
    // Reap completions first: callbacks fire at poll ticks (the host
    // observes completion only when it looks), then release the nodes.
    for (auto &qp : _qps) {
        while (qp.cqCount > 0) {
            Cmd *cmd = qp.cq[qp.cqHead];
            qp.cq[qp.cqHead] = nullptr;
            qp.cqHead = (qp.cqHead + 1) % _cfg.ssdQueueDepth;
            --qp.cqCount;
            --qp.outstanding;
            auto done = std::move(cmd->done);
            cmd->done = {};
            if (done)
                done(*cmd);
            releaseCmd(cmd);
        }
    }
    // Then fetch submissions and dispatch them to the channel/die
    // timing model.
    for (std::uint32_t q = 0; q < _qps.size(); ++q) {
        Qp &qp = _qps[q];
        while (qp.sqCount > 0) {
            Cmd *cmd = qp.sq[qp.sqHead];
            qp.sq[qp.sqHead] = nullptr;
            qp.sqHead = (qp.sqHead + 1) % _cfg.ssdQueueDepth;
            --qp.sqCount;
            dispatch(q, cmd);
        }
    }
    if (totalOutstanding() > 0 && !_pollEvent.scheduled())
        _eq.scheduleIn(_pollEvent, _cfg.ssdPollInterval);
}

void
SsdDevice::dispatch(std::uint32_t q, Cmd *cmd)
{
    const Tick now = _eq.now();
    const std::uint32_t die =
        (cmd->flashPage / _cfg.ssdChannels) % _cfg.ssdDiesPerChannel;
    const std::size_t die_idx =
        std::size_t(q) * _cfg.ssdDiesPerChannel + die;
    Tick fin;
    if (cmd->isWrite) {
        // Program: bus transfer into the die, then tPROG occupies the
        // die alone (the channel frees as soon as the transfer ends).
        const Tick bus_start = std::max(now, _chanFree[q]);
        const Tick xfer_done = bus_start + _xferCycles;
        fin = std::max(xfer_done, _dieFree[die_idx]) +
              _cfg.ssdProgramLatency;
        _chanFree[q] = xfer_done;
        _dieFree[die_idx] = fin;
    } else {
        // Read: tR senses on the die, then the page crosses the bus.
        const Tick start = std::max(now, _dieFree[die_idx]);
        const Tick sense_done = start + _cfg.ssdReadLatency;
        const Tick bus_start = std::max(sense_done, _chanFree[q]);
        fin = bus_start + _xferCycles;
        _dieFree[die_idx] = fin;
        _chanFree[q] = fin;
    }
    _inDevice.push_back(cmd);
    _eq.post(fin, [this, q, cmd, e = _epoch] { onDeviceDone(q, cmd, e); });
}

void
SsdDevice::onDeviceDone(std::uint32_t q, Cmd *cmd, std::uint64_t epoch)
{
    if (epoch != _epoch)
        return;  // powerFail reclaimed the command node
    const auto it = std::find(_inDevice.begin(), _inDevice.end(), cmd);
    if (it != _inDevice.end())
        _inDevice.erase(it);
    if (cmd->isWrite) {
        _flash.write(Addr(cmd->flashPage) * kPageBytes, kPageBytes,
                     cmd->data.data());
        ++_programs;
        _statPrograms.inc();
    } else {
        _flash.read(Addr(cmd->flashPage) * kPageBytes, kPageBytes,
                    cmd->data.data());
        ++_reads;
        _statReads.inc();
    }
    Qp &qp = _qps[q];
    qp.cq[qp.cqTail] = cmd;
    qp.cqTail = (qp.cqTail + 1) % _cfg.ssdQueueDepth;
    ++qp.cqCount;
    // The poll loop keeps itself scheduled while commands are
    // outstanding, so this completion will be reaped without help.
}

void
SsdDevice::powerFail()
{
    ++_epoch;
    for (auto &qp : _qps) {
        while (qp.sqCount > 0) {
            Cmd *cmd = qp.sq[qp.sqHead];
            qp.sq[qp.sqHead] = nullptr;
            qp.sqHead = (qp.sqHead + 1) % _cfg.ssdQueueDepth;
            --qp.sqCount;
            releaseCmd(cmd);
        }
        while (qp.cqCount > 0) {
            Cmd *cmd = qp.cq[qp.cqHead];
            qp.cq[qp.cqHead] = nullptr;
            qp.cqHead = (qp.cqHead + 1) % _cfg.ssdQueueDepth;
            --qp.cqCount;
            releaseCmd(cmd);
        }
        qp.sqHead = qp.sqTail = qp.cqHead = qp.cqTail = 0;
        qp.outstanding = 0;
    }
    for (Cmd *cmd : _inDevice)
        releaseCmd(cmd);
    _inDevice.clear();
    std::fill(_chanFree.begin(), _chanFree.end(), Tick(0));
    std::fill(_dieFree.begin(), _dieFree.end(), Tick(0));
    _eq.deschedule(_pollEvent);
    // _flash is the non-volatile medium: it survives.
}

// ---------------------------------------------------------------------
// DestageEngine
// ---------------------------------------------------------------------

DestageEngine::DestageEngine(McId id, EventQueue &eq,
                             const SystemConfig &cfg,
                             const AddressMap &amap,
                             MemoryController &ctrl, SsdDevice &ssd,
                             DataImage &nvm, StatSet &stats)
    : _id(id),
      _eq(eq),
      _cfg(cfg),
      _amap(amap),
      _ctrl(ctrl),
      _ssd(ssd),
      _nvm(nvm),
      _slots(amap.ssdMapEntriesPerMc()),
      _pumpEvent([this] { pump(); }, "destage_pump"),
      _statPages(stats.counter("mc" + std::to_string(id),
                               "destage_pages")),
      _statLogPages(stats.counter("mc" + std::to_string(id),
                                  "destage_log_pages")),
      _statPromotions(stats.counter("mc" + std::to_string(id),
                                    "destage_promotions")),
      _statCancelled(stats.counter("mc" + std::to_string(id),
                                   "destage_cancelled")),
      _statTruncWaits(stats.counter("mc" + std::to_string(id),
                                    "destage_trunc_waits")),
      _statStalls(stats.counter("mc" + std::to_string(id),
                                "destage_stalls"))
{
    // Pop order is deterministic (smallest index first), so destage
    // placement — and with it every downstream byte — replays
    // identically across runs.
    _freeSlots.reserve(_slots.size());
    for (std::uint32_t s = std::uint32_t(_slots.size()); s-- > 0;)
        _freeSlots.push_back(s);
    _freeFlash.reserve(cfg.ssdFlashPagesPerMc);
    for (std::uint32_t p = cfg.ssdFlashPagesPerMc; p-- > 0;)
        _freeFlash.push_back(p);
}

Addr
DestageEngine::mapLineAddr(std::uint32_t slot) const
{
    const std::uint32_t per_page = AddressMap::kSsdEntriesPerMapPage;
    return _amap.ssdMapPage(_id, slot / per_page) +
           Addr((slot % per_page) / 4) * kLineBytes;
}

Line
DestageEngine::composeMapLine(std::uint32_t line_idx) const
{
    // Compose only from slots whose flash program has completed
    // (MapSlot::mapped); anything else would persist an entry pointing
    // at garbage flash if a crash lands before the program finishes.
    Line line{};
    for (std::uint32_t k = 0; k < 4; ++k) {
        const std::uint32_t s = line_idx * 4 + k;
        if (s >= _slots.size() || !_slots[s].mapped)
            continue;
        std::uint64_t w0, w1;
        fwdmap::encode(_slots[s].page, _slots[s].flashPage, w0, w1);
        std::memcpy(line.data() + k * 16, &w0, 8);
        std::memcpy(line.data() + k * 16 + 8, &w1, 8);
    }
    return line;
}

void
DestageEngine::writeMapLine(std::uint32_t slot,
                            MemoryController::WriteCallback cb)
{
    _ctrl.writeLine(mapLineAddr(slot), composeMapLine(slot / 4),
                    WriteKind::FwdMap, std::move(cb));
}

void
DestageEngine::scrubPage(Addr page)
{
    // Poison, not zero: a path that wrongly treats NVM as
    // authoritative for a forwarded page corrupts visibly instead of
    // reading plausible stale bytes.
    Line poison;
    poison.fill(0x5A);
    for (std::uint32_t l = 0; l < kPageBytes / kLineBytes; ++l)
        _nvm.writeLine(page + Addr(l) * kLineBytes, poison);
}

DestageEngine::Attempt
DestageEngine::tryDestage(Addr page, bool is_log)
{
    if (_pages.count(page))
        return Attempt::Skip;  // already in the pipeline (or forwarded)
    if (_freeSlots.empty() || _freeFlash.empty()) {
        _statStalls.inc();
        return Attempt::Defer;
    }
    // Never snapshot under a write in flight: the destage starts only
    // from a quiescent page (late arrivals cancel it instead).
    if (_ctrl.hasPendingWriteInPage(page))
        return Attempt::Defer;

    const std::uint32_t slot = _freeSlots.back();
    const std::uint32_t flash_page = _freeFlash.back();
    SsdDevice::Cmd *cmd = _ssd.acquireCmd();
    cmd->isWrite = true;
    cmd->flashPage = flash_page;
    _nvm.read(page, kPageBytes, cmd->data.data());
    cmd->done = [this, page](SsdDevice::Cmd &) { onProgramDone(page); };
    const std::uint32_t qp = _ssd.qpOf(flash_page);
    if (!_ssd.submit(qp, cmd)) {
        _ssd.releaseCmd(cmd);
        return Attempt::Defer;
    }
    _ssd.ringDoorbell(qp);
    _freeSlots.pop_back();
    _freeFlash.pop_back();

    PageRec rec;
    rec.state = PageState::Programming;
    rec.isLog = is_log;
    rec.slot = slot;
    rec.flashPage = flash_page;
    _pages.emplace(page, std::move(rec));
    MapSlot &s = _slots[slot];
    s.page = page;
    s.flashPage = flash_page;
    s.mapped = false;
    ++_inFlight;
    return Attempt::Started;
}

void
DestageEngine::onProgramDone(Addr page)
{
    const auto it = _pages.find(page);
    if (it == _pages.end())
        return;
    PageRec &rec = it->second;
    if (rec.cancel) {
        // A write landed while the program was in flight: the snapshot
        // is stale, NVM stays authoritative, the flash copy is waste.
        _slots[rec.slot] = MapSlot{};
        _freeSlots.push_back(rec.slot);
        _freeFlash.push_back(rec.flashPage);
        _statCancelled.inc();
        --_inFlight;
        _pages.erase(it);
        drainBoundWaiters();
        maybeDestage();
        return;
    }
    rec.state = PageState::MapWriting;
    _slots[rec.slot].mapped = true;
    writeMapLine(rec.slot, [this, page] { onMapDurable(page); });
}

void
DestageEngine::onMapDurable(Addr page)
{
    const auto it = _pages.find(page);
    if (it == _pages.end())
        return;
    PageRec &rec = it->second;
    // The forwarding entry is durable: flash owns the page now.
    // Surrender the NVM copy only at this point — a crash any earlier
    // leaves an invalid (or absent) entry and intact NVM bytes.
    scrubPage(page);
    rec.state = PageState::Forwarded;
    --_inFlight;
    ++_pagesDestaged;
    (rec.isLog ? _statLogPages : _statPages).inc();
    drainBoundWaiters();
    if (rec.dropOnMap)
        startClear(page);
    else if (!rec.parked.empty())
        startPromotion(page);
    maybeDestage();
}

void
DestageEngine::startPromotion(Addr page)
{
    PageRec &rec = _pages.at(page);
    if (rec.state != PageState::Forwarded)
        return;
    SsdDevice::Cmd *cmd = _ssd.acquireCmd();
    cmd->isWrite = false;
    cmd->flashPage = rec.flashPage;
    cmd->done = [this, page](SsdDevice::Cmd &c) {
        onPromoteRead(page, c.data.data());
    };
    const std::uint32_t qp = _ssd.qpOf(cmd->flashPage);
    if (!_ssd.submit(qp, cmd)) {
        _ssd.releaseCmd(cmd);
        _promoteRetry.push_back(page);
        schedulePump();
        return;
    }
    _ssd.ringDoorbell(qp);
    rec.state = PageState::Promoting;
}

void
DestageEngine::onPromoteRead(Addr page, const std::uint8_t *data)
{
    const auto it = _pages.find(page);
    if (it == _pages.end())
        return;
    PageRec &rec = it->second;
    // Restore the bytes, then clear the entry durably; parked accesses
    // replay only once the clear is durable (a write replayed earlier
    // would be clobbered by rehydration if a crash found the entry
    // still valid).
    _nvm.write(page, kPageBytes, data);
    _slots[rec.slot].mapped = false;
    rec.state = PageState::Clearing;
    ++_promotionsDone;
    _statPromotions.inc();
    writeMapLine(rec.slot, [this, page] { onClearDurable(page); });
}

void
DestageEngine::startClear(Addr page)
{
    // Truncate drop of a forwarded log bucket: restore the stale bytes
    // functionally (so the freed bucket reads exactly as if the
    // destage never happened — recovery's sequence window already
    // rejects its records) and clear the entry durably. No timed SSD
    // read: this is metadata housekeeping inside truncation, not a
    // demand access.
    PageRec &rec = _pages.at(page);
    std::array<std::uint8_t, kPageBytes> buf;
    _ssd.flash().read(Addr(rec.flashPage) * kPageBytes, kPageBytes,
                      buf.data());
    _nvm.write(page, kPageBytes, buf.data());
    _slots[rec.slot].mapped = false;
    rec.state = PageState::Clearing;
    writeMapLine(rec.slot, [this, page] { onClearDurable(page); });
}

void
DestageEngine::onClearDurable(Addr page)
{
    const auto it = _pages.find(page);
    if (it == _pages.end())
        return;
    PageRec rec = std::move(it->second);
    _pages.erase(it);
    _slots[rec.slot] = MapSlot{};
    _freeSlots.push_back(rec.slot);
    _freeFlash.push_back(rec.flashPage);
    // Replay parked accesses in arrival order through the ordinary
    // controller paths (they re-enter the intercept and fall through).
    for (auto &op : rec.parked) {
        if (op.isWrite)
            _ctrl.writeNvm(op.addr, op.data, op.wkind,
                           std::move(op.wcb));
        else
            _ctrl.readNvm(op.addr, op.rkind, std::move(op.rcb));
    }
}

bool
DestageEngine::interceptRead(Addr addr, ReadKind kind,
                             MemoryController::ReadCallback &cb)
{
    if (_pages.empty())
        return false;
    const auto it = _pages.find(addr & ~Addr(kPageBytes - 1));
    if (it == _pages.end())
        return false;
    PageRec &rec = it->second;
    switch (rec.state) {
      case PageState::Programming:
      case PageState::MapWriting:
      case PageState::Clearing:
        // NVM bytes are still (or again) authoritative.
        return false;
      case PageState::Forwarded:
      case PageState::Promoting: {
        ParkedOp op;
        op.isWrite = false;
        op.addr = addr;
        op.rkind = kind;
        op.rcb = std::move(cb);
        rec.parked.push_back(std::move(op));
        if (rec.state == PageState::Forwarded)
            startPromotion(it->first);
        return true;
      }
    }
    return false;
}

bool
DestageEngine::interceptWrite(Addr addr, const Line &data,
                              WriteKind kind,
                              MemoryController::WriteCallback &cb)
{
    if (_pages.empty() || kind == WriteKind::FwdMap)
        return false;
    const auto it = _pages.find(addr & ~Addr(kPageBytes - 1));
    if (it == _pages.end())
        return false;
    PageRec &rec = it->second;
    switch (rec.state) {
      case PageState::Programming:
        // The in-flight snapshot is stale now; cancel the destage and
        // let the write through (NVM never stopped being the truth).
        rec.cancel = true;
        return false;
      case PageState::MapWriting:
      case PageState::Promoting:
      case PageState::Clearing: {
        // Park until the entry settles: a write committed while the
        // entry is (or may become) valid would be undone by
        // rehydration after a crash.
        ParkedOp op;
        op.isWrite = true;
        op.addr = addr;
        op.data = data;
        op.wkind = kind;
        op.wcb = std::move(cb);
        rec.parked.push_back(std::move(op));
        return true;
      }
      case PageState::Forwarded: {
        ParkedOp op;
        op.isWrite = true;
        op.addr = addr;
        op.data = data;
        op.wkind = kind;
        op.wcb = std::move(cb);
        rec.parked.push_back(std::move(op));
        startPromotion(it->first);
        return true;
      }
    }
    return false;
}

void
DestageEngine::onLogSegmentCold(Addr bucket_page)
{
    if (_pages.count(bucket_page))
        return;
    if (std::find(_pendingColdLog.begin(), _pendingColdLog.end(),
                  bucket_page) != _pendingColdLog.end())
        return;
    _pendingColdLog.push_back(bucket_page);
    maybeDestage();
}

void
DestageEngine::onTruncate(std::vector<Addr> data_pages,
                          std::vector<Addr> log_pages,
                          std::function<void()> done)
{
    for (const Addr p : log_pages)
        dropLogPage(p);
    for (const Addr p : data_pages)
        touchCold(p);
    maybeDestage();
    if (_cfg.durabilityPolicy == DurabilityPolicy::Strict ||
        backlog() <= _cfg.ssdMaxDestageBacklog) {
        done();
        return;
    }
    _statTruncWaits.inc();
    _boundWaiters.push_back(std::move(done));
}

void
DestageEngine::dropLogPage(Addr page)
{
    // A freed bucket must not be destaged later on a stale request.
    const auto pending = std::find(_pendingColdLog.begin(),
                                   _pendingColdLog.end(), page);
    if (pending != _pendingColdLog.end())
        _pendingColdLog.erase(pending);
    const auto it = _pages.find(page);
    if (it == _pages.end())
        return;
    PageRec &rec = it->second;
    switch (rec.state) {
      case PageState::Programming:
        rec.cancel = true;
        break;
      case PageState::MapWriting:
        rec.dropOnMap = true;
        break;
      case PageState::Forwarded:
        startClear(page);
        break;
      case PageState::Promoting:
      case PageState::Clearing:
        break;  // already on its way out of the pipeline
    }
}

void
DestageEngine::touchCold(Addr page)
{
    if (_pages.count(page))
        return;
    const auto pos = std::find(_coldLru.begin(), _coldLru.end(), page);
    if (pos != _coldLru.end())
        _coldLru.erase(pos);
    _coldLru.push_back(page);
}

void
DestageEngine::maybeDestage()
{
    bool deferred = false;
    // Cold log segments first: the flash-resident log tail is the
    // piece recovery depends on; data pages are a capacity play.
    while (!_pendingColdLog.empty()) {
        const Attempt a = tryDestage(_pendingColdLog.front(), true);
        if (a == Attempt::Defer) {
            deferred = true;
            break;
        }
        _pendingColdLog.erase(_pendingColdLog.begin());
    }
    if (!deferred) {
        while (_coldLru.size() > _cfg.ssdColdPageWatermark) {
            const Attempt a = tryDestage(_coldLru.front(), false);
            if (a == Attempt::Defer) {
                deferred = true;
                break;
            }
            _coldLru.erase(_coldLru.begin());
        }
    }
    if (deferred)
        schedulePump();
}

std::size_t
DestageEngine::backlog() const
{
    std::size_t b = _pendingColdLog.size() + _inFlight;
    if (_coldLru.size() > _cfg.ssdColdPageWatermark)
        b += _coldLru.size() - _cfg.ssdColdPageWatermark;
    return b;
}

void
DestageEngine::drainBoundWaiters()
{
    while (!_boundWaiters.empty() &&
           backlog() <= _cfg.ssdMaxDestageBacklog) {
        auto done = std::move(_boundWaiters.front());
        _boundWaiters.erase(_boundWaiters.begin());
        done();
    }
}

std::optional<DestageEngine::PageState>
DestageEngine::pageState(Addr page) const
{
    const auto it = _pages.find(page);
    if (it == _pages.end())
        return std::nullopt;
    return it->second.state;
}

std::uint32_t
DestageEngine::forwardedPages() const
{
    std::uint32_t n = 0;
    for (const auto &kv : _pages)
        if (kv.second.state == PageState::Forwarded)
            ++n;
    return n;
}

bool
DestageEngine::requestDestage(Addr page, bool is_log)
{
    return tryDestage(page, is_log) == Attempt::Started;
}

void
DestageEngine::schedulePump()
{
    if (!_pumpEvent.scheduled())
        _eq.scheduleIn(_pumpEvent, _cfg.ssdPollInterval);
}

void
DestageEngine::pump()
{
    std::vector<Addr> retry;
    retry.swap(_promoteRetry);
    for (const Addr p : retry) {
        if (_pages.count(p))
            startPromotion(p);
    }
    maybeDestage();
    if (!_promoteRetry.empty())
        schedulePump();
}

void
DestageEngine::powerFail()
{
    // Everything here is volatile pipeline state; the durable truth a
    // crash leaves behind is the NVM-resident map (plus the flash
    // image the device keeps), which recovery rehydrates.
    _pages.clear();
    for (auto &s : _slots)
        s = MapSlot{};
    _freeSlots.clear();
    for (std::uint32_t s = std::uint32_t(_slots.size()); s-- > 0;)
        _freeSlots.push_back(s);
    _freeFlash.clear();
    for (std::uint32_t p = _cfg.ssdFlashPagesPerMc; p-- > 0;)
        _freeFlash.push_back(p);
    _coldLru.clear();
    _pendingColdLog.clear();
    _promoteRetry.clear();
    _boundWaiters.clear();
    _inFlight = 0;
    _eq.deschedule(_pumpEvent);
}

} // namespace atomsim
