#include "mem/memory_controller.hh"

#include <algorithm>
#include <cstdio>

#include "mem/ssd_device.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace atomsim
{

std::string
MediaFaultRecord::describe() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "media hard-fail: mc%u %s read of 0x%llx at tick %llu "
                  "(%u attempts)",
                  unsigned(mc), kind == ReadKind::LogRead ? "log" : "demand",
                  (unsigned long long)addr, (unsigned long long)tick,
                  attempts);
    return buf;
}

MemoryController::MemoryController(McId id, EventQueue &eq,
                                   const SystemConfig &cfg, DataImage &nvm,
                                   StatSet &stats)
    : _id(id),
      _eq(eq),
      _cfg(cfg),
      _nvm(nvm),
      _stats(stats),
      _statName("mc" + std::to_string(id)),
      _statReads(stats.counter(_statName, "demand_reads")),
      _statLogReads(stats.counter(_statName, "log_reads")),
      _statWrites(stats.counter(_statName, "data_writes")),
      _statLogWrites(stats.counter(_statName, "log_writes")),
      _statGateBlocks(stats.counter(_statName, "gate_blocks")),
      _statDramCleanses(stats.counter(_statName, "dram_cleanses")),
      _statMediaRetries(stats.counter(_statName, "media_retries")),
      _statMediaFail(stats.counter(_statName, "media_fail"))
{
    for (std::uint32_t c = 0; c < cfg.channelsPerMc; ++c) {
        _channels.emplace_back(
            eq, cfg, std::uint64_t(id) * cfg.channelsPerMc + c);
    }
    _chState.resize(cfg.channelsPerMc);
    for (std::uint32_t c = 0; c < cfg.channelsPerMc; ++c) {
        _chState[c].kickEvent = std::make_unique<TickEvent>(
            [this, c] { kick(c); }, "mc.kick");
    }
    if (cfg.hybrid()) {
        _dram = std::make_unique<DramCache>(cfg, stats, _statName);
        _dramDev = std::make_unique<DramDevice>(
            eq, cfg, stats.counter(_statName, "row_hits"),
            stats.counter(_statName, "row_misses"));
    }
}

bool
MemoryController::isLogTraffic(WriteKind kind)
{
    switch (kind) {
      case WriteKind::LogData:
      case WriteKind::LogHeader:
      case WriteKind::CriticalRegs:
      case WriteKind::RedoLog:
        return true;
      default:
        return false;
    }
}

bool
MemoryController::isGated(WriteKind kind)
{
    switch (kind) {
      case WriteKind::DataWb:
      case WriteKind::Flush:
      case WriteKind::RedoApply:
        return true;
      default:
        return false;
    }
}

std::uint32_t
MemoryController::channelFor(bool is_log_traffic) const
{
    // In the two-channel configuration (the paper's *-2C runs) channel 1
    // is dedicated to log traffic; channel 0 carries data.
    if (_channels.size() >= 2 && is_log_traffic)
        return 1;
    return 0;
}

MemoryController::Request *
MemoryController::acquireReq()
{
    return _reqPool.acquire();
}

void
MemoryController::releaseReq(Request *r)
{
    r->rcb = nullptr;
    r->wcb = nullptr;
    while (r->extra) {
        WcbNode *n = r->extra;
        r->extra = n->next;
        n->next = nullptr;
        n->cb = nullptr;
        _wcbPool.release(n);
    }
    _reqPool.release(r);
}

void
MemoryController::addWcb(Request *r, WriteCallback cb)
{
    if (!r->wcb) {
        r->wcb = std::move(cb);
        return;
    }
    WcbNode *n = _wcbPool.acquire();
    n->cb = std::move(cb);
    // Append so acks fire in registration order.
    n->next = nullptr;
    WcbNode **tail = &r->extra;
    while (*tail)
        tail = &(*tail)->next;
    *tail = n;
}

MemoryController::DramOp *
MemoryController::acquireDramOp()
{
    DramOp *op = _dramOpPool.acquire();
    op->activeNext = _dramActive;
    _dramActive = op;
    return op;
}

void
MemoryController::releaseDramOp(DramOp *op)
{
    DramOp *prev = nullptr;
    DramOp *cur = _dramActive;
    while (cur && cur != op) {
        prev = cur;
        cur = cur->activeNext;
    }
    panic_if(!cur, "releasing a DramOp that is not in flight");
    if (prev)
        prev->activeNext = op->activeNext;
    else
        _dramActive = op->activeNext;
    op->activeNext = nullptr;
    op->rcb = nullptr;
    op->wcb = nullptr;
    _dramOpPool.release(op);
}

void
MemoryController::writeBackVictim(const DramCache::Victim &victim)
{
    // Displaced dirty DRAM line: push it to NVM through the ordinary
    // write queue. DataWb keeps it behind the ATOM write gate -- the
    // absorbed write that dirtied it never consulted the gate (DRAM is
    // volatile, so Invariant 2 was not at stake), but this write
    // reaches NVM and must wait out a not-yet-persisted record header
    // like any other data writeback.
    writeNvm(victim.addr, victim.data, WriteKind::DataWb,
             WriteCallback{});
}

void
MemoryController::readLine(Addr addr, ReadKind kind, ReadCallback cb)
{
    addr = lineAlign(addr);
    if (kind == ReadKind::Demand)
        _statReads.inc();
    else
        _statLogReads.inc();

    if (_dram && dramCacheable(addr)) {
        DramOp *op = acquireDramOp();
        op->addr = addr;
        op->rcb = std::move(cb);
        if (_dram->read(addr, op->data)) {
            // DRAM hit: the data snapshot rides the op; completion at
            // device timing, never touching the NVM channel.
            ++_pendingReads;
            const std::uint64_t epoch = _epoch;
            _dramDev->access(
                addr, false, _eq.now() + _cfg.mcFrontendLatency,
                [this, op, epoch] {
                    if (epoch != _epoch)
                        return;
                    --_pendingReads;
                    ReadCallback done = std::move(op->rcb);
                    const Line data = op->data;
                    releaseDramOp(op);
                    done(data);
                });
            return;
        }
        // Miss: read NVM as usual, demand-fill the cache when the
        // data returns (unless an absorbed write landed a newer copy
        // meanwhile), and charge the fill's bank occupancy.
        readNvm(addr, kind, ReadCallback([this, op](const Line &data) {
            // Fill with the *newest* accepted bytes, not the read's
            // issue-time snapshot: a write-through write of this line
            // (a log write, a REDO apply -- traffic that does not
            // come from the home tile and so is not FIFO-ordered
            // against the read) can be accepted during the NVM
            // device window. Its writeThrough() was a no-op while the
            // line was absent, so installing the snapshot would leave
            // a permanently stale clean line for later reads to hit.
            const auto fwd = _inflightWrites.find(op->addr);
            const Line &newest = fwd != _inflightWrites.end()
                                     ? fwd->second.data
                                     : data;
            const DramCache::Victim victim = _dram->fill(op->addr,
                                                         newest);
            if (victim.dirty)
                writeBackVictim(victim);
            _dramDev->access(op->addr, true, _eq.now(),
                             DramDevice::Callback([] {}));
            // If an absorbed write raced the fill, fill() kept the
            // (even newer) cached copy -- it is the authoritative
            // answer.
            const Line *cached = _dram->peek(op->addr);
            const Line result = cached ? *cached : newest;
            ReadCallback done = std::move(op->rcb);
            releaseDramOp(op);
            done(result);
        }));
        return;
    }

    readNvm(addr, kind, std::move(cb));
}

bool
MemoryController::hasPendingWriteInPage(Addr page_base) const
{
    if (_inflightWrites.empty())
        return false;
    for (Addr a = page_base; a < page_base + kPageBytes; a += kLineBytes) {
        if (_inflightWrites.count(a))
            return true;
    }
    return false;
}

void
MemoryController::readNvm(Addr addr, ReadKind kind, ReadCallback cb)
{
    // Flash tier: a read of a page whose authoritative bytes moved to
    // flash parks in the destage engine and stalls through the SSD
    // read path (promotion); it re-enters here once NVM is truth
    // again.
    if (_destage && _destage->interceptRead(addr, kind, cb))
        return;

    const std::uint32_t ch = channelFor(kind == ReadKind::LogRead);
    Request *req = acquireReq();
    req->isWrite = false;
    req->addr = addr;
    req->rkind = kind;
    req->rcb = std::move(cb);
    req->enqueueTick = _eq.now();
    _chState[ch].readQ.push_back(req);
    ++_pendingReads;
    scheduleKick(ch, _eq.now() + _cfg.mcFrontendLatency);
}

void
MemoryController::writeLine(Addr addr, const Line &data, WriteKind kind,
                            WriteCallback cb)
{
    addr = lineAlign(addr);

    if (_dram && dramCacheable(addr)) {
        if (kind == WriteKind::DataWb) {
            // Absorb the eviction writeback at DRAM latency. Its
            // completion has never been a durability promise (commit
            // persistence travels as Flush), so acking from volatile
            // DRAM is architecturally honest -- and exactly what
            // powerFail dropping the dirty line models.
            const DramCache::Victim victim = _dram->absorb(addr, data);
            if (victim.dirty)
                writeBackVictim(victim);
            DramOp *op = acquireDramOp();
            op->addr = addr;
            if (cb)
                op->wcb = std::move(cb);
            ++_pendingWrites;
            const std::uint64_t epoch = _epoch;
            _dramDev->access(
                addr, true, _eq.now() + _cfg.mcFrontendLatency,
                [this, op, epoch] {
                    if (epoch != _epoch)
                        return;
                    --_pendingWrites;
                    WriteCallback done = std::move(op->wcb);
                    releaseDramOp(op);
                    if (done)
                        done();
                });
            return;
        }
        // Durability-bearing kinds stay write-through: refresh the
        // cached copy (clean -- NVM receives these very bytes) and
        // let the NVM completion drive the ack.
        _dram->writeThrough(addr, data);
    }

    writeNvm(addr, data, kind, std::move(cb));
}

void
MemoryController::writeNvm(Addr addr, const Line &data, WriteKind kind,
                           WriteCallback cb)
{
    // Flash tier: a write to a page mid-destage cancels the destage
    // (snapshot-phase) or parks until NVM is authoritative again.
    // Consulted before the stat increments so a parked op is counted
    // exactly once, when the engine replays it through this path.
    if (_destage && _destage->interceptWrite(addr, data, kind, cb))
        return;

    // Counted here -- on the NVM path -- so data_writes / log_writes
    // mean "writes reaching NVM" in every mode: absorbed DataWbs are
    // counted by dram_wr_absorbed instead, while DRAM victim
    // writebacks and durability cleanses (which enter through this
    // function) are real NVM writes and show up here.
    if (isLogTraffic(kind))
        _statLogWrites.inc();
    else
        _statWrites.inc();

    const std::uint32_t ch = channelFor(isLogTraffic(kind));
    auto &wq = _chState[ch].writeQ;

    // Write combining in the controller queue: a newer write to the same
    // line replaces the queued data; durability callbacks accumulate.
    for (Request *queued = wq.head; queued; queued = queued->next) {
        if (queued->addr == addr && queued->wkind == kind) {
            queued->data = data;
            queued->acceptSeq = ++_acceptSeq;
            // The read-forwarding snapshot must track the newest
            // accepted value too, or a read (and, in hybrid mode, the
            // DRAM demand fill it feeds) observes the pre-combine
            // bytes. The count stays put: still one queued request.
            auto it = _inflightWrites.find(addr);
            if (it != _inflightWrites.end())
                it->second.data = data;
            if (cb)
                addWcb(queued, std::move(cb));
            return;
        }
    }

    Request *req = acquireReq();
    req->isWrite = true;
    req->addr = addr;
    req->data = data;
    req->wkind = kind;
    if (cb)
        req->wcb = std::move(cb);
    req->enqueueTick = _eq.now();
    req->acceptSeq = ++_acceptSeq;
    wq.push_back(req);
    ++_pendingWrites;
    PendingWrite &pw = _inflightWrites[addr];
    ++pw.count;
    pw.data = data;  // acceptance order: this is the newest value
    scheduleKick(ch, _eq.now() + _cfg.mcFrontendLatency);
}

void
MemoryController::whenLineDurable(Addr addr, WriteCallback cb)
{
    addr = lineAlign(addr);
    if (_dram && _dram->isDirty(addr)) {
        // Durability cleanse: the newest copy of the line lives only
        // in volatile DRAM (an absorbed writeback). Push it to NVM --
        // through the gated write path, like any data write -- and
        // ack when *that* write persists. Without this, a commit
        // whose dirty line was evicted L1->L2->DRAM before the flush
        // would be reported durable while its bytes were one power
        // failure away from vanishing.
        _statDramCleanses.inc();
        const Line data = *_dram->peek(addr);
        _dram->markClean(addr);
        writeNvm(addr, data, WriteKind::Flush, std::move(cb));
        return;
    }
    auto it = _inflightWrites.find(addr);
    if (it == _inflightWrites.end() || it->second.count == 0) {
        cb();
        return;
    }
    _durWaiters[addr].push_back(std::move(cb));
}

void
MemoryController::scheduleKick(std::uint32_t ch, Tick when)
{
    TickEvent &ev = *_chState[ch].kickEvent;
    if (ev.scheduled())
        return;
    _eq.schedule(ev, std::max(when, _eq.now()));
}

void
MemoryController::kick(std::uint32_t ch)
{
    auto &st = _chState[ch];
    auto &chan = _channels[ch];

    while (!st.readQ.empty() || !st.writeQ.empty()) {
        if (chan.freeAt() > _eq.now()) {
            scheduleKick(ch, chan.freeAt());
            return;
        }

        // Read-priority arbitration with a write-drain high-water mark.
        const bool drain_writes =
            st.writeQ.count >= (3 * std::size_t(_cfg.mcWriteQueue)) / 4;
        const bool pick_read =
            !st.readQ.empty() && (!drain_writes || st.writeQ.empty());

        if (pick_read) {
            issueRead(ch, st.readQ.pop_front());
        } else {
            Request *req = st.writeQ.pop_front();

            if (_gate && isGated(req->wkind)) {
                // Section III-C: consult the log manager when a data
                // write is scheduled out of the controller. A locked
                // line waits for its record header to persist; the
                // pooled node itself parks in the unlock continuation.
                const std::uint64_t epoch = _epoch;
                const bool free = _gate->tryAcquire(
                    req->addr, [this, ch, req, epoch] {
                        if (epoch != _epoch) {
                            releaseReq(req);
                            return;
                        }
                        _chState[ch].writeQ.push_front(req);
                        scheduleKick(ch, _eq.now());
                    });
                if (!free) {
                    _statGateBlocks.inc();
                    continue;
                }
            }
            issueWrite(ch, req);
        }
    }
}

void
MemoryController::issueRead(std::uint32_t ch, Request *req)
{
    // Observe outstanding writes: forward the newest accepted data
    // for the line while *any* write of it is still pending -- queued
    // or already issued to the device but not yet persisted
    // (read-after-write correctness; the in-flight device window is
    // ~360 cycles, easily reachable by a demand read chasing a
    // writeback).
    const auto fwd = _inflightWrites.find(req->addr);
    Line data = fwd != _inflightWrites.end() ? fwd->second.data
                                             : _nvm.readLine(req->addr);

    // Media-error model: a seeded fraction of device read attempts
    // fail and are retried with bounded backoff; running out of
    // retries is an uncorrectable error surfaced as a structured
    // fault record (the stored bytes are still delivered -- detection
    // is the model, not silent corruption). Rate 0 (default) makes
    // this exactly the old scheduleRead() timing.
    const NvmChannel::ReadGrant grant =
        _channels[ch].scheduleReadFaulty(req->addr);
    if (grant.retries != 0)
        _statMediaRetries.inc(grant.retries);
    if (grant.hardFail) {
        _statMediaFail.inc();
        _mediaFaults.push_back(MediaFaultRecord{
            _id, req->addr, _eq.now(), _cfg.mediaRetryLimit + 1,
            req->rkind});
    }
    const Tick done = grant.ready;
    const std::uint64_t epoch = _epoch;
    ReadCallback cb = std::move(req->rcb);
    releaseReq(req);
    _eq.post(done, [this, epoch, cb = std::move(cb),
                    data = std::move(data)]() mutable {
        if (epoch != _epoch)
            return;
        --_pendingReads;
        cb(data);
    });
}

void
MemoryController::issueWrite(std::uint32_t ch, Request *req)
{
    // The record-header address match costs one cycle on the data-write
    // path (Section V); it is folded into the device write here.
    const Tick done = _channels[ch].scheduleWrite() +
                      (isGated(req->wkind) ? _cfg.mcAddrMatchLatency : 0);
    // Under the torn-write model the controller remembers what is in
    // flight at the device: powerFail consumes this list to commit a
    // word-aligned prefix of each write (the posted completions alone
    // cannot tell us -- the epoch bump cancels them first).
    if (_cfg.tornWrites)
        _deviceWrites.push_back(req);
    const std::uint64_t epoch = _epoch;
    _eq.post(done, [this, epoch, req] {
        if (epoch != _epoch) {
            releaseReq(req);
            return;
        }
        if (_cfg.tornWrites) {
            const auto dw = std::find(_deviceWrites.begin(),
                                      _deviceWrites.end(), req);
            if (dw != _deviceWrites.end())
                _deviceWrites.erase(dw);
        }
        // Same-line commits land in the durable image in *acceptance*
        // order, not device-completion order: a write-gate park can
        // replay a blocked writeback behind a later-accepted commit
        // flush of the same line (stacked push_fronts fire newest
        // first), and letting the stale bytes clobber the flushed
        // ones tears committed data after truncation discarded its
        // undo record. The stale write keeps its device-slot timing
        // and acks; only its image update is suppressed.
        auto it = _inflightWrites.find(req->addr);
        const bool stale = it != _inflightWrites.end() &&
                           req->acceptSeq < it->second.committedSeq;
        if (!stale) {
            _nvm.writeLine(req->addr, req->data);
            if (it != _inflightWrites.end())
                it->second.committedSeq = req->acceptSeq;
        }
        --_pendingWrites;
        if (it != _inflightWrites.end() && --it->second.count == 0) {
            _inflightWrites.erase(it);
            auto wit = _durWaiters.find(req->addr);
            if (wit != _durWaiters.end()) {
                auto waiters = std::move(wit->second);
                _durWaiters.erase(wit);
                for (auto &w : waiters)
                    w();
            }
        }
        // Detach the acks and release the node before firing them, so
        // an ack may immediately enqueue new controller work.
        WriteCallback first = std::move(req->wcb);
        WcbNode *chain = req->extra;
        req->extra = nullptr;
        releaseReq(req);
        if (first)
            first();
        while (chain) {
            WcbNode *n = chain;
            chain = n->next;
            WriteCallback cb = std::move(n->cb);
            n->next = nullptr;
            n->cb = nullptr;
            _wcbPool.release(n);
            if (cb)
                cb();
        }
    });
}

void
MemoryController::powerFail()
{
    // Queued and in-flight (not yet completed at the device) work is
    // lost; epoch bump cancels all scheduled completions (which then
    // just return their pooled nodes).
    ++_epoch;

    // Torn writes: each write in flight at the device commits a
    // seeded word-aligned prefix of its data (real NVM guarantees
    // 8-byte atomicity, nothing more), instead of vanishing whole.
    // Tears land in acceptance order and respect the same-line
    // staleness rule as completed writes (a parked writeback replayed
    // behind a newer commit of its line must not resurface, not even
    // partially). Queued-but-unissued writes never reached the device
    // and are dropped atomically as before. The tear boundary hashes
    // only deterministic keys, so the post-crash image is identical
    // across reruns.
    if (_cfg.tornWrites && !_deviceWrites.empty()) {
        std::sort(_deviceWrites.begin(), _deviceWrites.end(),
                  [](const Request *a, const Request *b) {
                      return a->acceptSeq < b->acceptSeq;
                  });
        for (Request *req : _deviceWrites) {
            auto it = _inflightWrites.find(req->addr);
            const bool stale = it != _inflightWrites.end() &&
                               req->acceptSeq < it->second.committedSeq;
            if (stale)
                continue;
            const std::uint32_t words = tornWordCount(
                _cfg.faultSeed, _id, req->addr, req->acceptSeq);
            _nvm.writeLineWords(req->addr, req->data, words);
            if (it != _inflightWrites.end())
                it->second.committedSeq = req->acceptSeq;
        }
        // The nodes stay alive: their cancelled completions (epoch
        // mismatch) release them back to the pool.
        _deviceWrites.clear();
    }

    for (auto &st : _chState) {
        while (!st.readQ.empty())
            releaseReq(st.readQ.pop_front());
        while (!st.writeQ.empty())
            releaseReq(st.writeQ.pop_front());
        _eq.deschedule(*st.kickEvent);
    }
    _inflightWrites.clear();
    _durWaiters.clear();
    _pendingWrites = 0;
    _pendingReads = 0;
    if (_dram) {
        // The DRAM tier is volatile: every cached line -- dirty
        // absorbed writebacks included -- is lost. Only bytes the NVM
        // device had completed survive into the recovery image.
        _dram->invalidateAll();
        _dramDev->clear();
        while (_dramActive) {
            DramOp *op = _dramActive;
            _dramActive = op->activeNext;
            op->activeNext = nullptr;
            op->rcb = nullptr;
            op->wcb = nullptr;
            _dramOpPool.release(op);
        }
    }
}

std::uint64_t
MemoryController::channelBusyCycles() const
{
    std::uint64_t total = 0;
    for (const auto &c : _channels)
        total += c.busyCycles();
    return total;
}

} // namespace atomsim
