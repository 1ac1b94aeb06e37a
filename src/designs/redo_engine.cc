#include "designs/redo_engine.hh"

#include <array>
#include <cstring>

#include "sim/logging.hh"

namespace atomsim
{

namespace redo_format
{

std::uint64_t
packEntry(Addr line_addr, CoreId core)
{
    return lineAlign(line_addr) | (core & 0x3f);
}

std::uint64_t
packCommit(CoreId core, std::uint64_t txn_seq, std::uint32_t mc_mask)
{
    return (std::uint64_t(1) << 63) |
           (std::uint64_t(mc_mask & 0xff) << 54) |
           ((txn_seq & ((std::uint64_t(1) << 46) - 1)) << 8) |
           (core & 0x3f);
}

bool
isCommit(std::uint64_t word)
{
    return (word >> 63) & 1;
}

Addr
slotAddr(std::uint64_t word)
{
    return word & ~Addr(0x3f) & ~(std::uint64_t(1) << 63);
}

CoreId
slotCore(std::uint64_t word)
{
    return CoreId(word & 0x3f);
}

std::uint64_t
commitSeq(std::uint64_t word)
{
    return (word >> 8) & ((std::uint64_t(1) << 46) - 1);
}

std::uint32_t
commitMcMask(std::uint64_t word)
{
    return std::uint32_t((word >> 54) & 0xff);
}

} // namespace redo_format

RedoEngine::RedoEngine(EventQueue &eq, const SystemConfig &cfg,
                       const AddressMap &amap,
                       std::vector<std::unique_ptr<MemoryController>> &mcs,
                       StatSet &stats)
    : _eq(eq),
      _cfg(cfg),
      _amap(amap),
      _mcs(mcs),
      _cores(cfg.numCores),
      _mcState(cfg.numMemCtrls),
      _statEntries(stats.counter("redo", "log_entries")),
      _statCombined(stats.counter("redo", "combined_stores")),
      _statCommits(stats.counter("redo", "commits")),
      _statApplied(stats.counter("redo", "applied"))
{
    // The redo log reuses the OS-reserved log region of each MC; the
    // cursor starts at the MC's first bucket page.
    (void)amap;
    _drainEvents.reserve(cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        _drainEvents.push_back(std::make_unique<TickEvent>(
            [this, c] { drainWcb(c); }, "redo.drainWcb"));
    }
}

bool
RedoEngine::inAtomic(CoreId core) const
{
    return _cores[core].active;
}

void
RedoEngine::onFirstWrite(CoreId, Addr, const Line &, CacheCallback)
{
    panic("RedoEngine::onFirstWrite: undo hook on the redo design");
}

void
RedoEngine::beginTxn(CoreId core)
{
    CoreState &cs = _cores[core];
    panic_if(cs.active, "core %u begins a nested redo txn", core);
    cs.active = true;
    ++cs.txnSeq;
}

void
RedoEngine::onStore(CoreId core, Addr addr, const Line &pre,
                    std::uint32_t off, const std::uint8_t *bytes,
                    std::uint32_t size, CacheCallback done)
{
    CoreState &cs = _cores[core];
    panic_if(!cs.active, "redo store outside a txn");
    const Addr line = lineAlign(addr);

    // Write combining: a store to a line already buffered merges its
    // bytes into that entry's image and renews the entry.
    for (auto &e : cs.wcb) {
        if (e.line == line) {
            _statCombined.inc();
            std::memcpy(e.data.data() + off, bytes, size);
            e.readyAt = _eq.now() + 2;  // drain after this store too
            _eq.postIn(1, std::move(done));
            return;
        }
    }

    if (cs.wcb.size() >= _cfg.redoCombineEntries) {
        // Buffer full: the store stalls until the drain frees a slot.
        // This is REDO's bandwidth back-pressure path. The payload is
        // copied: @p bytes only lives for the duration of this call.
        // The captured pre-image stays fresh across the stall -- any
        // same-line store issued meanwhile parks behind this one (the
        // buffer is still full) and merges once this entry exists.
        std::array<std::uint8_t, kLineBytes> payload{};
        std::memcpy(payload.data(), bytes, size);
        cs.fullWaiters.push_back(
            [this, core, addr, pre, off, payload, size,
             done = std::move(done)]() mutable {
                onStore(core, addr, pre, off, payload.data(), size,
                        std::move(done));
            });
        return;
    }

    WcbEntry entry{line, pre, _eq.now() + 2};
    std::memcpy(entry.data.data() + off, bytes, size);
    cs.wcb.push_back(std::move(entry));
    _eq.postIn(1, std::move(done));
    if (!cs.draining) {
        cs.draining = true;
        // Drain pacing matches the old snapshot-at-drain timing: the
        // first entry issues only after its store applied.
        _eq.scheduleIn(*_drainEvents[core], 2);
    }
}

void
RedoEngine::drainWcb(CoreId core)
{
    CoreState &cs = _cores[core];
    if (cs.wcb.empty()) {
        cs.draining = false;
        if (cs.entriesInFlight == 0 && cs.commitWaiter) {
            auto w = std::move(cs.commitWaiter);
            cs.commitWaiter = nullptr;
            w();
        }
        return;
    }

    if (cs.wcb.front().readyAt > _eq.now()) {
        // The triggering store has not applied yet: drain later.
        _eq.schedule(*_drainEvents[core], cs.wcb.front().readyAt);
        return;
    }

    WcbEntry entry = std::move(cs.wcb.front());
    cs.wcb.pop_front();
    // The entry's image was assembled store by store at logging time
    // (pre-image + merged bytes), so it is the line's newest value no
    // matter where the cache copy currently is; the data travels with
    // the log write while the hierarchy keeps its dirty copy (which
    // must never spill to NVM -- victim cache).
    _statEntries.inc();

    if (!cs.fullWaiters.empty()) {
        auto w = std::move(cs.fullWaiters.front());
        cs.fullWaiters.pop_front();
        w();
    }

    const McId mc = _amap.memCtrl(entry.line);
    if (cs.touchedMc.empty())
        cs.touchedMc.assign(_cfg.numMemCtrls, false);
    cs.touchedMc[mc] = true;
    ++cs.entriesInFlight;
    appendToFrame(mc, core, redo_format::packEntry(entry.line, core),
                  entry.data, false, [this, core] {
        CoreState &s = _cores[core];
        --s.entriesInFlight;
        if (!s.draining && s.entriesInFlight == 0 && s.commitWaiter) {
            auto w = std::move(s.commitWaiter);
            s.commitWaiter = nullptr;
            w();
        }
    });
    // Pace: one entry per drain step; next step after the combine
    // buffer's issue latency.
    _eq.scheduleIn(*_drainEvents[core], 1);
}

void
RedoEngine::appendToFrame(McId mc, CoreId core, Addr slot_word,
                          const Line &data, bool is_commit,
                          std::function<void()> durable)
{
    McState &ms = _mcState[mc];

    // Start a frame if none is open. The cursor hops bucket (page) to
    // bucket so it only ever touches this MC's interleaved log pages.
    // The log is circular: frames whose entries the backend has
    // applied are dead, so the cursor wraps (recovery-from-crash tests
    // size their runs to finish before the first wrap; see DESIGN.md).
    if (ms.frameMeta == 0) {
        const std::uint32_t frames_per_bucket =
            kPageBytes / (8 * kLineBytes);
        if (ms.frameInBucket >= frames_per_bucket) {
            ms.frameInBucket = 0;
            if (++ms.bucket >= _amap.bucketsPerMc()) {
                ms.bucket = 0;
                ++ms.wraps;
            }
        }
        ms.frameMeta = _amap.bucketBase(mc, ms.bucket) +
                       Addr(ms.frameInBucket) * 8 * kLineBytes;
        ++ms.frameInBucket;
        ms.frameFill = 0;
        ms.framePendingData = 0;
        ms.metaLine.fill(0);
        std::uint32_t magic = redo_format::kMetaMagic;
        std::memcpy(ms.metaLine.data(), &magic, sizeof(magic));
    }

    const std::uint32_t slot = ms.frameFill++;
    std::memcpy(ms.metaLine.data() + 8 + slot * 8, &slot_word, 8);
    std::uint8_t count = std::uint8_t(ms.frameFill);
    ms.metaLine[4] = count;

    if (!is_commit) {
        // Entry data line write (charged on the log channel).
        const Addr data_addr =
            ms.frameMeta + Addr(slot + 1) * kLineBytes;
        ++ms.framePendingData;
        const Addr frame = ms.frameMeta;
        // Stage the in-place apply on the core: the backend may only
        // touch in-place data after the commit record persists.
        _cores[core].stagedApplies.emplace_back(
            mc, WcbEntry{redo_format::slotAddr(slot_word), data},
            data_addr);
        _mcs[mc]->writeLine(data_addr, data, WriteKind::RedoLog,
                            [this, mc, frame,
                             durable = std::move(durable)]() mutable {
            McState &s = _mcState[mc];
            if (s.frameMeta == frame)
                --s.framePendingData;
            durable();
        });
        if (ms.frameFill >= redo_format::kSlotsPerFrame)
            sealFrame(mc, std::function<void()>{});
        return;
    }

    // Commit slot: seal the frame now; durable when the meta persists.
    sealFrame(mc, std::move(durable));
}

void
RedoEngine::sealFrame(McId mc, std::function<void()> durable)
{
    McState &ms = _mcState[mc];
    panic_if(ms.frameMeta == 0, "sealing a non-existent frame");
    const Addr meta_addr = ms.frameMeta;
    const Line meta = ms.metaLine;
    ms.frameMeta = 0;

    // Meta persists after its data lines: the controller's FIFO write
    // queue per channel preserves issue order for our purposes (the
    // data writes were issued first on the same channel).
    _mcs[mc]->writeLine(meta_addr, meta, WriteKind::RedoLog,
                        [durable = std::move(durable)]() mutable {
                            if (durable)
                                durable();
                        });
}

void
RedoEngine::commitTxn(CoreId core, std::function<void()> done)
{
    CoreState &cs = _cores[core];
    panic_if(!cs.active, "commit without a txn");

    auto write_commit = [this, core, done = std::move(done)]() mutable {
        CoreState &s = _cores[core];
        s.active = false;
        _statCommits.inc();
        // A commit slot goes to every controller this update logged
        // at, so each per-controller stream is self-contained for
        // recovery; the update is durable when all slots persist.
        std::vector<McId> targets;
        std::uint32_t mc_mask = 0;
        for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
            if (!s.touchedMc.empty() && s.touchedMc[m]) {
                targets.push_back(m);
                mc_mask |= 1u << m;
            }
        }
        if (targets.empty()) {
            targets.push_back(McId(core % _cfg.numMemCtrls));
            mc_mask = 1u << targets.front();
        }
        s.touchedMc.clear();

        auto pending = std::make_shared<std::size_t>(targets.size());
        auto finish = std::make_shared<std::function<void()>>(
            [this, core, done = std::move(done)]() mutable {
                // Commit record durable: release the update's staged
                // in-place applies to the backend controllers.
                CoreState &s2 = _cores[core];
                for (auto &[m, entry, log_addr] : s2.stagedApplies) {
                    _mcState[m].applyQueue.push_back(entry);
                    _mcState[m].applyLogAddr.push_back(log_addr);
                }
                s2.stagedApplies.clear();
                for (McId m = 0; m < _cfg.numMemCtrls; ++m)
                    backendPump(m);
                done();
            });
        for (McId m : targets) {
            appendToFrame(m, core,
                          redo_format::packCommit(core, s.txnSeq,
                                                  mc_mask),
                          Line{}, true, [pending, finish] {
                              if (--*pending == 0)
                                  (*finish)();
                          });
        }
    };

    // Wait for the combine buffer to drain and all entry writes to be
    // issued before the commit record.
    if (!cs.draining && cs.wcb.empty() && cs.entriesInFlight == 0) {
        write_commit();
    } else {
        panic_if(cs.commitWaiter != nullptr,
                 "overlapping commits on core %u", core);
        cs.commitWaiter = std::move(write_commit);
    }
}

void
RedoEngine::backendPump(McId mc)
{
    McState &ms = _mcState[mc];
    if (ms.backendBusy || ms.applyQueue.empty())
        return;
    ms.backendBusy = true;

    WcbEntry entry = std::move(ms.applyQueue.front());
    ms.applyQueue.pop_front();
    const Addr log_addr = ms.applyLogAddr.front();
    ms.applyLogAddr.pop_front();

    // The backend reads the log entry from NVM, then updates data in
    // place -- the read+write bandwidth cost Section VI-D measures.
    _mcs[mc]->readLine(log_addr, ReadKind::LogRead,
                       [this, mc, entry](const Line &) {
        _mcs[mc]->writeLine(entry.line, entry.data, WriteKind::RedoApply,
                            [this, mc] {
                                _statApplied.inc();
                                McState &s = _mcState[mc];
                                s.backendBusy = false;
                                backendPump(mc);
                            });
    });
}

std::size_t
RedoEngine::backlog() const
{
    std::size_t n = 0;
    for (const auto &ms : _mcState)
        n += ms.applyQueue.size();
    return n;
}

void
RedoEngine::powerFail()
{
    for (auto &ev : _drainEvents)
        _eq.deschedule(*ev);
    for (auto &cs : _cores) {
        cs.active = false;
        cs.wcb.clear();
        cs.draining = false;
        cs.fullWaiters.clear();
        cs.commitWaiter = nullptr;
        cs.entriesInFlight = 0;
        cs.stagedApplies.clear();
    }
    for (auto &ms : _mcState) {
        ms.frameMeta = 0;
        ms.applyQueue.clear();
        ms.applyLogAddr.clear();
        ms.backendBusy = false;
    }
    _victims.clear();
}

} // namespace atomsim
