#include "atom/logm.hh"

#include <algorithm>
#include <cstring>

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
        OpenRecord *open = _aus[a].open.get();
        if (open && !open->sealed) {
            for (Addr e : open->entries) {
                if (e == line) {
                    _statForcedSeals.inc();
                    sealOpen(a);
                    break;
                }
            }
        }
    }
    return false;
}

void
LogM::withOpenRecord(std::uint32_t aus, ReadyCallback ready)
{
    AusState &st = _aus[aus];
    panic_if(!st.active, "log entry for inactive AUS %u", aus);

    if (st.open && !st.open->sealed &&
        st.open->entries.size() <
            std::min<std::size_t>(_cfg.recordEntries,
                                  LogRecordHeader::kMaxEntries)) {
        ready();
        return;
    }
    if (st.open && !st.open->sealed)
        sealOpen(aus);

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

    auto rec = std::make_unique<OpenRecord>();
    rec->base = _amap.recordBase(_mc, st.currentBucket, st.currentRecord);
    rec->seq = st.nextSeq++;
    ++st.currentRecord;
    st.open = std::move(rec);
    _statRecords.inc();
    ready();
}

void
LogM::postLogEntry(std::uint32_t aus, Addr line_addr,
                   const Line &old_value, bool posted,
                   LogAckCallback ack)
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
    // entry instead of appending a new one.
    {
        AusState &st = _aus[aus];
        panic_if(!st.active, "log entry for inactive AUS %u", aus);
        if (!st.loggedLines.tryEmplace(line).second) {
            _statDupEntries.inc();
            if (!ack)
                return;
            if (!posted) {
                // BASE: the ack still means "this entry is durable".
                // If the covering record's header has not persisted
                // yet, ride its persist; otherwise the entry is
                // already durable and only the address match costs.
                OpenRecord *cover = nullptr;
                if (st.open) {
                    for (Addr e : st.open->entries)
                        if (e == line)
                            cover = st.open.get();
                }
                if (!cover) {
                    for (auto &sealing : st.sealing) {
                        for (Addr e : sealing->entries)
                            if (e == line)
                                cover = sealing.get();
                        if (cover)
                            break;
                    }
                }
                if (cover) {
                    cover->persistAcks.push_back(std::move(ack));
                    return;
                }
            }
            _eq.postIn(_cfg.mcAddrMatchLatency, std::move(ack));
            return;
        }
    }

    withOpenRecord(aus, [this, aus, line, old_value, posted,
                         ack = std::move(ack)]() mutable {
        AusState &st = _aus[aus];
        OpenRecord *rec = st.open.get();
        _statEntries.inc();

        const std::uint32_t slot =
            std::uint32_t(rec->entries.size());
        rec->entries.push_back(line);
        const Addr entry_addr = rec->base + Addr(slot + 1) * kLineBytes;

        // The line is "locked" (its address now sits in the record
        // header register) until the header persists.
        lock(line);

        ++rec->pendingData;
        ++st.outstandingWrites;
        const Addr rec_base = rec->base;
        _ctrl.writeLine(entry_addr, old_value, WriteKind::LogData,
                        [this, aus, rec_base] {
            AusState &s = _aus[aus];
            OpenRecord *r = nullptr;
            if (s.open && s.open->base == rec_base) {
                r = s.open.get();
            } else {
                for (auto &sealing : s.sealing) {
                    if (sealing->base == rec_base) {
                        r = sealing.get();
                        break;
                    }
                }
            }
            if (r) {
                panic_if(r->pendingData == 0, "pendingData underflow");
                --r->pendingData;
                maybeIssueHeader(aus, r);
            }
            logWriteDone(aus);
        });

        if (posted) {
            // Posted-log optimization: ack after the lock is taken
            // (address-match latency); persistence is off the critical
            // path (Section III-C).
            if (ack) {
                _eq.postIn(_cfg.mcAddrMatchLatency, std::move(ack));
            }
        } else if (ack) {
            // BASE: the ack waits until the entry is durable, i.e.
            // the covering record header has persisted.
            rec->persistAcks.push_back(std::move(ack));
        }

        // LEC off (or BASE): one entry per record -> seal immediately,
        // costing 2 NVM writes per entry (Section IV-C's motivation).
        const bool lec = _cfg.enableLec && posted;
        if (!lec || rec->entries.size() >=
                        std::min<std::size_t>(
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
    OpenRecord *rec = st.open.get();
    if (!rec || rec->sealed)
        return;
    rec->sealed = true;
    st.sealing.push_back(std::move(st.open));
    maybeIssueHeader(aus, st.sealing.back().get());
}

void
LogM::maybeIssueHeader(std::uint32_t aus, OpenRecord *rec)
{
    // Header may only persist after every entry data line of the
    // record is durable (a header must never describe garbage data).
    if (!rec->sealed || rec->headerIssued || rec->pendingData > 0)
        return;
    rec->headerIssued = true;

    LogRecordHeader hdr;
    hdr.ausId = std::uint8_t(aus);
    hdr.count = std::uint8_t(rec->entries.size());
    hdr.seq = rec->seq;
    for (std::size_t i = 0; i < rec->entries.size(); ++i)
        hdr.addrs[i] = rec->entries[i];

    AusState &st = _aus[aus];
    ++st.outstandingWrites;
    const Addr base = rec->base;
    _ctrl.writeLine(base, hdr.toLine(), WriteKind::LogHeader,
                    [this, aus, base] {
        onHeaderDurable(aus, base);
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
LogM::onHeaderDurable(std::uint32_t aus, Addr record_base)
{
    AusState &st = _aus[aus];
    for (auto it = st.sealing.begin(); it != st.sealing.end(); ++it) {
        if ((*it)->base != record_base)
            continue;
        std::unique_ptr<OpenRecord> rec = std::move(*it);
        st.sealing.erase(it);
        // Unlock every line in the record: in-place writes may now
        // reach NVM (Invariant 2 satisfied for these lines).
        for (Addr line : rec->entries)
            unlock(line);
        for (auto &ack : rec->persistAcks)
            ack();
        return;
    }
    panic("header durable for unknown record at %llx",
          (unsigned long long)record_base);
}

bool
LogM::sourceLogFill(CoreId core, Addr addr, const Line &old_value)
{
    const int aus = _ausPool.slotOf(core);
    if (aus < 0)
        return false;
    _statSourceLogged.inc();
    postLogEntry(std::uint32_t(aus), addr, old_value, true,
                 LogAckCallback{});
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
    // lift or future data writes would block forever.
    if (s.open) {
        for (Addr line : s.open->entries)
            unlock(line);
        s.open.reset();
    }
    panic_if(!s.sealing.empty(), "truncate with unpersisted sealed records");

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
