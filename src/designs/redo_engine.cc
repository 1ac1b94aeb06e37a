#include "designs/redo_engine.hh"

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
      _statCommits(stats.counter("redo", "commits")),
      _statApplied(stats.counter("redo", "applied"))
{
    // The redo log reuses the OS-reserved log region of each MC; the
    // cursor starts at the MC's first bucket page.
    _drainEvents.reserve(cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        _drainEvents.push_back(
            std::make_unique<TickEvent>([this, c] { drainWcb(c); }));
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

    // Every store is its own entry: the buffer is a two-cycle delay
    // line, never a combining or a back-pressure point. A core has at
    // most sqDrainWidth = 2 stores in flight, never two to one line; a
    // same-line store reaches onStore at least 4 ticks after the
    // previous one (its +1 ack plus the 3-cycle L1 latency), while
    // that store's entry drains within 3. Two entries then never
    // share a line and the buffer never holds more than two.
    WcbEntry entry{lineAlign(addr), pre, _eq.now() + 2};
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
        // The last entry's log write issued a tick ago and cannot be
        // durable yet: its completion writes the waiting commit.
        panic_if(cs.entriesInFlight == 0 && cs.commitWaiting,
                 "core %u: redo commit waits on no log write", core);
        cs.draining = false;
        return;
    }

    if (cs.wcb.front().readyAt > _eq.now()) {
        // The triggering store has not applied yet: drain later.
        _eq.schedule(*_drainEvents[core], cs.wcb.front().readyAt);
        return;
    }

    WcbEntry entry = std::move(cs.wcb.front());
    cs.wcb.pop_front();
    // The entry's image was built at logging time (the pre-store
    // image plus the store's bytes), so it is the line's newest value
    // no matter where the cache copy currently is; the data travels
    // with the log write while the hierarchy keeps its dirty copy
    // (which must never spill to NVM -- victim cache).
    _statEntries.inc();

    const McId mc = _amap.memCtrl(entry.line);
    cs.touchedMcs |= 1u << mc;
    ++cs.entriesInFlight;
    appendToFrame(mc, core, redo_format::packEntry(entry.line, core),
                  entry.data, false, [this, core] {
        CoreState &s = _cores[core];
        --s.entriesInFlight;
        if (!s.draining && s.entriesInFlight == 0 && s.commitWaiting) {
            s.commitWaiting = false;
            writeCommit(core);
        }
    });
    // Pace: one entry per drain step; next step after the buffer's
    // issue latency.
    _eq.scheduleIn(*_drainEvents[core], 1);
}

void
RedoEngine::appendToFrame(McId mc, CoreId core, Addr slot_word,
                          const Line &data, bool is_commit, Done durable)
{
    McState &ms = _mcState[mc];

    // Start a frame if none is open. The cursor hops bucket (page) to
    // bucket so it only ever touches this MC's interleaved log pages.
    // The log is circular: frames whose entries the backend has
    // applied are dead, so the cursor wraps. Recovery replays frames in
    // address order, which is log order only until the first wrap, so
    // recovery-from-crash tests size their runs to finish before it.
    if (ms.frameMeta == 0) {
        const std::uint32_t frames_per_bucket =
            kPageBytes / (8 * kLineBytes);
        if (ms.frameInBucket >= frames_per_bucket) {
            ms.frameInBucket = 0;
            if (++ms.bucket >= _amap.bucketsPerMc())
                ms.bucket = 0;
        }
        ms.frameMeta = _amap.bucketBase(mc, ms.bucket) +
                       Addr(ms.frameInBucket) * 8 * kLineBytes;
        ++ms.frameInBucket;
        ms.frameFill = 0;
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
        // Stage the in-place apply on the core: the backend may only
        // touch in-place data after the commit record persists.
        _cores[core].stagedApplies.emplace_back(
            mc, WcbEntry{redo_format::slotAddr(slot_word), data},
            data_addr);
        _mcs[mc]->writeLine(data_addr, data, WriteKind::RedoLog,
                            std::move(durable));
        if (ms.frameFill >= redo_format::kSlotsPerFrame)
            sealFrame(mc, nullptr);
        return;
    }

    // Commit slot: seal the frame now; durable when the meta persists.
    sealFrame(mc, std::move(durable));
}

void
RedoEngine::sealFrame(McId mc, Done durable)
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
RedoEngine::commitTxn(CoreId core, Done done)
{
    CoreState &cs = _cores[core];
    panic_if(!cs.active, "commit without a txn");
    panic_if(bool(cs.commitDone), "overlapping commits on core %u", core);
    cs.commitDone = std::move(done);
    // Wait for the buffer to drain and every entry write to be
    // durable before the commit record.
    if (!cs.draining && cs.wcb.empty() && cs.entriesInFlight == 0)
        writeCommit(core);
    else
        cs.commitWaiting = true;
}

void
RedoEngine::writeCommit(CoreId core)
{
    CoreState &cs = _cores[core];
    cs.active = false;
    _statCommits.inc();
    // A commit slot goes to every controller this update logged at, so
    // each per-controller stream is self-contained for recovery; the
    // update is durable when all slots persist.
    const std::uint32_t mc_mask =
        cs.touchedMcs ? cs.touchedMcs : 1u << (core % _cfg.numMemCtrls);
    cs.touchedMcs = 0;

    cs.commitSlots = std::size_t(__builtin_popcount(mc_mask));
    for (std::uint32_t bits = mc_mask; bits != 0; bits &= bits - 1) {
        appendToFrame(McId(__builtin_ctz(bits)), core,
                      redo_format::packCommit(core, cs.txnSeq, mc_mask),
                      Line{}, true, [this, core] { commitSlotDurable(core); });
    }
}

void
RedoEngine::commitSlotDurable(CoreId core)
{
    CoreState &cs = _cores[core];
    if (--cs.commitSlots != 0)
        return;
    // Commit record durable: release the update's staged in-place
    // applies to the backend controllers.
    for (auto &[m, entry, log_addr] : cs.stagedApplies)
        _mcState[m].applyQueue.emplace_back(entry, log_addr);
    cs.stagedApplies.clear();
    for (McId m = 0; m < _cfg.numMemCtrls; ++m)
        backendPump(m);
    Done done = std::move(cs.commitDone);
    done();
}

void
RedoEngine::backendPump(McId mc)
{
    McState &ms = _mcState[mc];
    if (ms.backendBusy || ms.applyQueue.empty())
        return;
    ms.backendBusy = true;

    const WcbEntry entry = ms.applyQueue.front().first;
    const Addr log_addr = ms.applyQueue.front().second;
    ms.applyQueue.pop_front();

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

} // namespace atomsim
