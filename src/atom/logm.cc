#include "atom/logm.hh"

#include <algorithm>
#include <utility>

#include "mem/ssd_device.hh"
#include "sim/logging.hh"

namespace atomsim
{

LogM::LogM(McId mc, EventQueue &eq, const SystemConfig &cfg,
           const AddressMap &amap, MemoryController &ctrl, LogSpace &os,
           StatSet &stats, const AusPool &aus)
    : _mc(mc),
      _eq(eq),
      _cfg(cfg),
      _amap(amap),
      _ctrl(ctrl),
      _os(os),
      _ausPool(aus),
      _posted(cfg.design != DesignKind::Base),
      _buckets(cfg.ausPerMc, cfg.bucketsPerMc, cfg.osInitialBucketsPerMc),
      _aus(cfg.ausPerMc),
      _statEntries(
          stats.counter("logm" + std::to_string(mc), "entries")),
      _statRecords(
          stats.counter("logm" + std::to_string(mc), "records")),
      _statSourceLogged(
          stats.counter("logm" + std::to_string(mc), "source_logged")),
      _statOverflows(
          stats.counter("logm" + std::to_string(mc), "log_overflows")),
      _statForcedSeals(
          stats.counter("logm" + std::to_string(mc), "forced_seals")),
      _statDupEntries(
          stats.counter("logm" + std::to_string(mc), "dup_entries")),
      _statTruncations(
          stats.counter("logm" + std::to_string(mc), "truncations"))
{
    _ctrl.setWriteGate(this);
}

void
LogM::beginUpdate(std::uint32_t aus)
{
    AusState &st = _aus[aus];
    panic_if(st.active, "AUS %u already active at mc%u", aus, _mc);
    st.active = true;
    st.currentBucket = kNoBucket;
    st.currentRecord = 0;
    st.txnStartSeq = st.nextSeq;
    st.loggedLines.clear();
}

void
LogM::lock(Addr line_addr)
{
    ++_locks[lineAlign(line_addr)].count;
}

void
LogM::unlock(Addr line_addr)
{
    const Addr line = lineAlign(line_addr);
    LockState *ls = _locks.find(line);
    panic_if(!ls || ls->count == 0, "unlock of a line that is not locked");
    if (--ls->count == 0) {
        // The waiters may re-lock lines: take them out of the table
        // before running any.
        auto waiters = std::move(ls->waiters);
        _locks.erase(line);
        for (auto &w : waiters)
            w();
    }
}

bool
LogM::lineLocked(Addr line_addr) const
{
    const LockState *ls = _locks.find(lineAlign(line_addr));
    return ls && ls->count > 0;
}

bool
LogM::tryAcquire(Addr line_addr, UnlockCallback on_unlock)
{
    const Addr line = lineAlign(line_addr);
    LockState *ls = _locks.find(line);
    if (!ls || ls->count == 0)
        return true;

    // The data write matched a pending record header: expedite the
    // header persist by sealing any open record holding this line.
    ls->waiters.push_back(std::move(on_unlock));
    for (std::uint32_t a = 0; a < _aus.size(); ++a) {
        const OpenRecord *open = _aus[a].open;
        if (!open)
            continue;
        const Addr *end = open->hdr.addrs + open->hdr.count;
        if (std::find(open->hdr.addrs, end, line) != end) {
            _statForcedSeals.inc();
            sealOpen(a);
        }
    }
    return false;
}

void
LogM::withOpenRecord(std::uint32_t aus, ReadyCallback ready)
{
    AusState &st = _aus[aus];
    panic_if(!st.active, "log entry for inactive AUS %u", aus);

    // An open record has room: the entry that fills a record seals it.
    if (st.open) {
        ready();
        return;
    }

    // Need a fresh record; possibly a fresh bucket.
    if (st.currentBucket == kNoBucket ||
        st.currentRecord >= AddressMap::kRecordsPerBucket) {
        auto bucket = _buckets.allocate(aus);
        if (!bucket) {
            // Log overflow: interrupt the OS for more mapped pages,
            // then retry (Section IV-E). The requesting update makes
            // forward progress with the new resources, so overflow
            // cannot deadlock.
            _statOverflows.inc();
            _os.requestMoreBuckets(
                _mc, [this, aus, ready = std::move(ready)](
                         std::uint32_t extra) mutable {
                    _buckets.extendMapped(extra);
                    withOpenRecord(aus, std::move(ready));
                });
            return;
        }
        const std::uint32_t prev = st.currentBucket;
        st.currentBucket = *bucket;
        st.currentRecord = 0;
        if (prev != kNoBucket) {
            // The bucket just left behind is full: no record will be
            // appended to it until truncation frees it. That makes it
            // a cold log segment -- the destage engine's preferred
            // candidate for migration to flash.
            if (DestageEngine *eng = _ctrl.destageEngine())
                eng->onLogSegmentCold(_amap.bucketBase(_mc, prev));
        }
    }

    OpenRecord *rec = _records.acquire();
    rec->hdr = LogRecordHeader{};
    rec->hdr.ausId = std::uint8_t(aus);
    rec->hdr.seq = st.nextSeq++;
    rec->base = _amap.recordBase(_mc, st.currentBucket, st.currentRecord);
    rec->pendingData = 0;
    rec->sealed = false;
    ++st.currentRecord;
    st.open = rec;
    _statRecords.inc();
    ready();
}

void
LogM::postLogEntry(std::uint32_t aus, Addr line_addr,
                   const Line &old_value, LogAckCallback ack)
{
    const Addr line = lineAlign(line_addr);

    // Duplicate-undo suppression: the line is already covered by this
    // update's log (the address matches an AUS header register or an
    // already-persisted record). Recovery applies records newest-first,
    // so only the first pre-image per line decides the restored value;
    // a second entry would be dead weight -- and worse, each re-log of
    // a store thrashing against recalls seals a fresh record, which
    // can exhaust the log region and livelock the overflow interrupt
    // (buckets are only reclaimed at commit). Ack against the existing
    // entry instead of appending a new one: only the address match
    // costs. Under BASE that ack still means "this entry is durable",
    // and it is: a core re-logs a line only after the store that
    // logged it applied, which waited for the BASE ack, which waited
    // for the header to persist.
    {
        AusState &st = _aus[aus];
        panic_if(!st.active, "log entry for inactive AUS %u", aus);
        const auto [durable, fresh] = st.loggedLines.tryEmplace(line);
        if (!fresh) {
            _statDupEntries.inc();
            panic_if(!_posted && !*durable,
                     "BASE re-log of %llx before its entry persisted",
                     (unsigned long long)line);
            if (ack)
                _eq.postIn(_cfg.mcAddrMatchLatency, std::move(ack));
            return;
        }
    }

    withOpenRecord(aus, [this, aus, line, old_value,
                         ack = std::move(ack)]() mutable {
        AusState &st = _aus[aus];
        OpenRecord *rec = st.open;
        LogRecordHeader &hdr = rec->hdr;
        _statEntries.inc();

        const Addr entry_addr = rec->base + Addr(hdr.count + 1) * kLineBytes;
        hdr.addrs[hdr.count++] = line;

        // The line is "locked" (its address now sits in the record
        // header register) until the header persists.
        lock(line);

        ++rec->pendingData;
        ++st.outstandingWrites;
        _ctrl.writeLine(entry_addr, old_value, WriteKind::LogData,
                        [this, aus, rec] {
            panic_if(rec->pendingData == 0, "pendingData underflow");
            --rec->pendingData;
            maybeIssueHeader(aus, rec);
            logWriteDone(aus);
        });

        if (_posted) {
            // Posted-log optimization: ack after the lock is taken
            // (address-match latency); persistence is off the critical
            // path (Section III-C).
            if (ack) {
                _eq.postIn(_cfg.mcAddrMatchLatency, std::move(ack));
            }
        } else {
            // BASE: the ack waits until the entry is durable, i.e.
            // the record header has persisted. The record seals below
            // with this one entry.
            panic_if(bool(rec->persistAck), "second entry in a BASE record");
            rec->persistAck = std::move(ack);
        }

        // LEC off (or BASE): one entry per record -> seal immediately,
        // costing 2 NVM writes per entry (Section IV-C's motivation).
        const bool lec = _cfg.enableLec && _posted;
        if (!lec || hdr.count >= std::min<std::uint32_t>(
                                     _cfg.recordEntries,
                                     LogRecordHeader::kMaxEntries)) {
            sealOpen(aus);
        }
    });
}

void
LogM::sealOpen(std::uint32_t aus)
{
    AusState &st = _aus[aus];
    OpenRecord *rec = st.open;
    st.open = nullptr;
    rec->sealed = true;
    maybeIssueHeader(aus, rec);
}

void
LogM::maybeIssueHeader(std::uint32_t aus, OpenRecord *rec)
{
    // Header may only persist after every entry data line of the
    // record is durable (a header must never describe garbage data).
    // Exactly one call finds both true: the seal, or the data write
    // completing last after it.
    if (!rec->sealed || rec->pendingData > 0)
        return;

    ++_aus[aus].outstandingWrites;
    _ctrl.writeLine(rec->base, rec->hdr.toLine(), WriteKind::LogHeader,
                    [this, aus, rec] {
        onHeaderDurable(aus, rec);
        logWriteDone(aus);
    });
}

void
LogM::logWriteDone(std::uint32_t aus)
{
    AusState &st = _aus[aus];
    if (--st.outstandingWrites == 0 && st.truncating) {
        st.truncating = false;
        finishTruncate(aus);
    }
}

void
LogM::onHeaderDurable(std::uint32_t aus, OpenRecord *rec)
{
    // Unlock every line in the record: in-place writes may now reach
    // NVM (Invariant 2 satisfied for these lines).
    for (std::uint32_t i = 0; i < rec->hdr.count; ++i)
        unlock(rec->hdr.addrs[i]);
    if (!_posted)  // BASE: the record's one entry is durable
        *_aus[aus].loggedLines.find(rec->hdr.addrs[0]) = true;
    LogAckCallback ack = std::move(rec->persistAck);
    _records.release(rec);
    if (ack)
        ack();
}

bool
LogM::sourceLogFill(CoreId core, Addr addr, const Line &old_value)
{
    if (_cfg.design != DesignKind::AtomOpt)
        return false;
    const int aus = _ausPool.slotOf(core);
    if (aus < 0)
        return false;
    _statSourceLogged.inc();
    postLogEntry(std::uint32_t(aus), addr, old_value, LogAckCallback{});
    return true;
}

void
LogM::truncate(std::uint32_t aus, InplaceCallback<16> done)
{
    AusState &st = _aus[aus];
    panic_if(!st.active, "truncate of inactive AUS %u", aus);
    panic_if(st.truncating, "AUS %u truncated twice at mc%u", aus, _mc);
    st.truncateDone = std::move(done);
    if (st.outstandingWrites == 0) {
        finishTruncate(aus);
        return;
    }
    st.truncating = true;
}

void
LogM::finishTruncate(std::uint32_t aus)
{
    AusState &s = _aus[aus];
    // Any still-open record's entries exist only in the header
    // register; clearing the register discards them. Their locks must
    // lift or future data writes would block forever. (A sealed record
    // still has a write outstanding, so none is left by now.)
    if (OpenRecord *open = std::exchange(s.open, nullptr)) {
        for (std::uint32_t i = 0; i < open->hdr.count; ++i)
            unlock(open->hdr.addrs[i]);
        _records.release(open);
    }

    // Flash tier: snapshot this update's freed log buckets and touched
    // data pages *before* the bucket registers clear. The freed buckets
    // must abandon any in-flight destage (their records are dead;
    // recovery's sequence window already rejects them) and the data
    // pages feed the cold-page LRU.
    DestageEngine *eng = _ctrl.destageEngine();
    std::vector<Addr> data_pages;
    std::vector<Addr> log_pages;
    if (eng) {
        data_pages.reserve(s.loggedLines.size());
        s.loggedLines.forEach([&data_pages](Addr line, bool) {
            data_pages.push_back(line & ~Addr(kPageBytes - 1));
        });
        std::sort(data_pages.begin(), data_pages.end());
        data_pages.erase(std::unique(data_pages.begin(), data_pages.end()),
                         data_pages.end());
        _buckets.vectorOf(aus).forEachSet([&](std::uint32_t b) {
            log_pages.push_back(_amap.bucketBase(_mc, b));
        });
    }

    _buckets.truncate(aus);
    _statTruncations.inc();
    s.loggedLines.clear();
    s.active = false;
    s.currentBucket = kNoBucket;
    s.currentRecord = 0;
    s.txnStartSeq = s.nextSeq;
    InplaceCallback<16> done = std::move(s.truncateDone);
    if (eng) {
        // Under the balanced policy truncation completion -- and with
        // it the commit ack -- waits until the un-destaged backlog is
        // back under its bound.
        eng->onTruncate(std::move(data_pages), std::move(log_pages),
                        std::move(done));
    } else {
        done();
    }
}

void
LogM::flushCriticalState(DataImage &nvm) const
{
    // ADR guarantee: these registers reach NVM even on power failure
    // (Section IV-D); the write is modeled as instantaneous.
    Addr cursor = _amap.adrBase(_mc);
    panic_if(_cfg.adrStateBytes() > kPageBytes,
             "critical state exceeds the ADR page");

    const std::uint32_t magic = 0xADA70001u;
    nvm.store32(cursor, magic);
    nvm.store32(cursor + 4, _cfg.ausPerMc);
    nvm.store32(cursor + 8, _cfg.bucketsPerMc);
    nvm.store32(cursor + 12, 0);
    cursor += 16;

    const std::uint32_t vec_bytes = (_cfg.bucketsPerMc + 7) / 8;
    for (std::uint32_t a = 0; a < _cfg.ausPerMc; ++a) {
        const AusState &st = _aus[a];
        std::vector<std::uint8_t> vec(vec_bytes, 0);
        _buckets.vectorOf(a).forEachSet([&](std::uint32_t b) {
            vec[b / 8] |= std::uint8_t(1) << (b % 8);
        });
        nvm.write(cursor, vec.size(), vec.data());
        cursor += vec_bytes;
        nvm.store32(cursor, st.currentBucket);
        nvm.store32(cursor + 4, st.currentRecord);
        nvm.store32(cursor + 8, st.txnStartSeq);
        nvm.store32(cursor + 12, st.nextSeq);
        nvm.store32(cursor + 16, st.active ? 1 : 0);
        cursor += 20;
    }
}

} // namespace atomsim
