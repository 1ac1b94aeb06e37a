#include "cache/l2_cache.hh"

#include "cache/l1_cache.hh"
#include "sim/logging.hh"

namespace atomsim
{

L2Tile::L2Tile(std::uint32_t tile_id, EventQueue &eq,
               const SystemConfig &cfg, Mesh &mesh, const AddressMap &amap,
               StatSet &stats)
    : _tileId(tile_id),
      _eq(eq),
      _cfg(cfg),
      _mesh(mesh),
      _amap(amap),
      _stats(stats),
      _array(cfg.l2TileBytes, cfg.l2Assoc, cfg.l2Tiles),
      _statHits(stats.counter("l2t" + std::to_string(tile_id), "hits")),
      _statMisses(stats.counter("l2t" + std::to_string(tile_id),
                                "misses")),
      _statRecalls(stats.counter("l2t" + std::to_string(tile_id),
                                 "recalls")),
      _statEvictions(stats.counter("l2t" + std::to_string(tile_id),
                                   "evictions")),
      _statVictimHits(stats.counter("l2t" + std::to_string(tile_id),
                                    "victim_hits"))
{
    // Directory occupancy: high-water mark of concurrently busy lines.
    _dir.attachStats(&stats.counter("dir" + std::to_string(tile_id),
                                    "ctrl_blocks_live"));
}

L2Tile::~L2Tile() = default;

void
L2Tile::meshDeliver(Packet &pkt)
{
    switch (pkt.type) {
      case MsgType::GetS:
        handleGetS(pkt.core, pkt.addr);
        return;
      case MsgType::GetX:
        handleGetX(pkt.core, pkt.addr, pkt.flag);
        return;
      case MsgType::Upgrade:
        handleUpgrade(pkt.core, pkt.addr, pkt.flag);
        return;
      case MsgType::PutM:
        handlePutM(pkt.core, pkt.addr, pkt.data);
        return;
      case MsgType::FlushReq:
      case MsgType::Ctrl:
        handleFlush(pkt.core, pkt.addr, pkt.flag, pkt.data);
        return;
      case MsgType::FwdAckS:
        onFwdAckS(pkt);
        return;
      case MsgType::FwdAckX:
        onFwdAckX(pkt);
        return;
      case MsgType::InvAck:
        roundAck(pkt.addr, false, false, pkt.data);
        return;
      case MsgType::RecallAck:
        roundAck(pkt.addr, pkt.flag, pkt.dirty, pkt.data);
        return;
      case MsgType::Data:
      case MsgType::DataExcl:
      case MsgType::DataLogged:
        // Memory fill response from an MC port.
        onMemFill(pkt.core, pkt.addr, pkt.data, pkt.logged, pkt.flag);
        return;
      default:
        panic("L2 tile %u: unexpected mesh message %s", _tileId,
              msgName(pkt.type));
    }
}

void
L2Tile::respondFill(CoreId core, Addr line, MsgType type,
                    const FillResult &result)
{
    Packet &p = _mesh.make(type);
    p.receiver = _l1s[core];
    p.core = core;
    p.addr = line;
    p.data = result.data;
    p.grant = result.grant;
    p.logged = result.logged;
    _mesh.send(_mesh.tileNode(_tileId), _mesh.coreNode(core), p);
}

void
L2Tile::sendFlushAck(CoreId core, Addr line)
{
    Packet &p = _mesh.make(MsgType::FlushAck);
    p.receiver = _l1s[core];
    p.core = core;
    p.addr = line;
    _mesh.send(_mesh.tileNode(_tileId), _mesh.coreNode(core), p);
}

void
L2Tile::writeThrough(Addr addr, const Line &data, WriteKind kind,
                     AckCallback &&on_durable)
{
    const McId mc = _amap.memCtrl(addr);
    Packet &p = _mesh.make(MsgType::MemWrite);
    p.receiver = _mcPorts[mc];
    p.addr = addr;
    p.arg = std::uint32_t(kind);
    p.data = data;
    p.cb = std::move(on_durable);
    _mesh.send(_mesh.tileNode(_tileId), _mesh.mcNode(mc), p);
}

void
L2Tile::startRound(Addr line, CoreId owner, const SharerSet &sharers,
                   RoundCallback done)
{
    const std::uint32_t remaining =
        (owner != kNoCore ? 1 : 0) + sharers.count();
    if (remaining == 0) {
        Round scratch;  // nothing to collect
        done(scratch);
        return;
    }

    Round *round = _roundPool.acquire();
    round->line = line;
    round->remaining = remaining;
    round->gotData = false;
    round->gotDirty = false;
    round->done = std::move(done);
    _rounds.push_front(round);

    const std::uint32_t home = _mesh.tileNode(_tileId);
    if (owner != kNoCore) {
        Packet &p = _mesh.make(MsgType::Recall);
        p.receiver = _l1s[owner];
        p.core = owner;
        p.addr = line;
        _mesh.send(home, _mesh.coreNode(owner), p);
    }
    // Ascending core order: the Invs draw their delivery seqs in the
    // same order a scan over every core would.
    sharers.forEach([&](CoreId c) {
        panic_if(c >= _l1s.size(), "sharer %u of line %#llx is past the "
                 "last core", c, (unsigned long long)line);
        Packet &p = _mesh.make(MsgType::Inv);
        p.receiver = _l1s[c];
        p.core = c;
        p.addr = line;
        _mesh.send(home, _mesh.coreNode(c), p);
    });
}

void
L2Tile::roundAck(Addr line, bool has_data, bool dirty, const Line &data)
{
    Round *round =
        _rounds.find([line](const Round &r) { return r.line == line; });
    panic_if(!round, "protocol ack for a line with no round in flight");
    if (has_data) {
        round->gotData = true;
        if (dirty) {
            round->gotDirty = true;
            round->data = data;
        }
    }
    if (--round->remaining != 0)
        return;
    _rounds.remove(round);
    // Run the continuation with the round detached but alive (it may
    // start new rounds; the pool will not hand this node out until
    // the release below).
    RoundCallback done = std::move(round->done);
    done(*round);
    round->done = nullptr;
    _roundPool.release(round);
}

void
L2Tile::evictThen(CacheLineState *frame, PendingFill *pf)
{
    // Inclusion: recall every L1 copy of the victim before it leaves
    // the L2 -- a split-phase round under the victim's busy bit. The
    // frame is pinned so concurrent fills to the set pick other ways
    // (or park until this eviction completes).
    const Addr vaddr = frame->tag;
    frame->pinned = true;
    _dir.acquire(vaddr, Directory::Txn([this, frame, vaddr, pf] {
        DirEntry &vdir = _dir.entry(vaddr);
        const CoreId owner = vdir.owner;
        const SharerSet sharers = std::move(vdir.sharers);
        vdir.owner = kNoCore;
        vdir.sharers.reset();
        if (owner != kNoCore)
            _statRecalls.inc();
        startRound(vaddr, owner, sharers,
                   [this, frame, vaddr, pf](Round &r) {
            if (r.gotDirty) {
                frame->data = r.data;
                frame->dirty = true;
            }
            _statEvictions.inc();
            if (frame->dirty) {
                if (_victims) {
                    // REDO: dirty evictions park in the victim cache
                    // so NVM in-place data stays pristine until
                    // applied.
                    _victims->put(vaddr, frame->data);
                } else {
                    writeThrough(vaddr, frame->data, WriteKind::DataWb,
                                 AckCallback{});
                }
            }
            _dir.erase(vaddr);
            frame->pinned = false;

            const CoreId core = pf->core;
            const Addr line = pf->line;
            const Line data = pf->data;
            const bool logged = pf->logged;
            const bool exclusive = pf->exclusive;
            _fillPool.release(pf);
            // Install the fill into the frame *before* releasing the
            // victim's busy bit: Directory::release runs the next
            // queued transaction synchronously, and a demand access
            // to the victim queued during the round must find the
            // frame re-tagged (a clean miss), not be granted the
            // stale still-valid copy the L2 is about to drop.
            finishFill(frame, core, line, data, logged, exclusive);
            _dir.release(vaddr);
            retryStalledFills();
        });
    }));
}

void
L2Tile::retryStalledFills()
{
    for (auto fills = _stalledFills.take(); !fills.empty();) {
        PendingFill *pf = fills.pop_front();
        const CoreId core = pf->core;
        const Addr line = pf->line;
        const Line data = pf->data;
        const bool logged = pf->logged;
        const bool exclusive = pf->exclusive;
        _fillPool.release(pf);
        onMemFill(core, line, data, logged, exclusive);
    }
}

void
L2Tile::missToMemory(CoreId core, Addr addr, bool exclusive,
                     bool in_atomic)
{
    // REDO keeps dirty evictions out of NVM in an (infinite) victim
    // cache; fills must consult it before reading stale NVM data.
    if (_victims) {
        if (const Line *v = _victims->find(addr)) {
            _statVictimHits.inc();
            const Line data = *v;
            _eq.postIn(_cfg.l2Latency, [this, core, addr, exclusive, data] {
                onMemFill(core, addr, data, false, exclusive);
            });
            return;
        }
    }

    const McId mc = _amap.memCtrl(addr);
    Packet &p = _mesh.make(exclusive ? MsgType::GetX : MsgType::GetS);
    p.receiver = _mcPorts[mc];
    p.core = core;
    p.addr = addr;
    p.flag = in_atomic;
    p.arg = _tileId;
    _mesh.send(_mesh.tileNode(_tileId), _mesh.mcNode(mc), p);
}

void
L2Tile::onMemFill(CoreId core, Addr addr, const Line &data, bool logged,
                  bool exclusive)
{
    const Addr line = lineAlign(addr);
    CacheLineState *frame = _array.victim(line);
    if (!frame->valid) {
        finishFill(frame, core, line, data, logged, exclusive);
        return;
    }

    PendingFill *pf = _fillPool.acquire();
    pf->core = core;
    pf->line = line;
    pf->data = data;
    pf->logged = logged;
    pf->exclusive = exclusive;

    if (frame->pinned) {
        // Every unpinned way of the set is mid-eviction; park until
        // one completes (bounded: rounds always finish).
        _stalledFills.push_back(pf);
        return;
    }
    evictThen(frame, pf);
}

void
L2Tile::finishFill(CacheLineState *frame, CoreId core, Addr line,
                   const Line &data, bool logged, bool exclusive)
{
    _array.install(frame, line);
    frame->data = data;
    frame->dirty = false;
    DirEntry &dir = _dir.entry(line);
    dir.owner = core;
    if (exclusive)
        dir.sharers.reset();
    const MsgType resp =
        exclusive ? (logged ? MsgType::DataLogged : MsgType::DataExcl)
                  : MsgType::Data;
    const CoherenceState grant = exclusive ? CoherenceState::Modified
                                           : CoherenceState::Exclusive;
    respondFill(core, line, resp, FillResult{data, grant, logged});
    _dir.release(line);
}

void
L2Tile::grantExclusive(CoreId requester, Addr line)
{
    CacheLineState *fr = _array.find(line);
    panic_if(!fr, "L2 lost line during busy txn");
    respondFill(requester, line, MsgType::DataExcl,
                FillResult{fr->data, CoherenceState::Modified, false});
    _dir.release(line);
}

void
L2Tile::invalidateSharers(CoreId requester, Addr line,
                          const SharerSet &mask)
{
    startRound(line, kNoCore, mask, [this, requester, line](Round &) {
        grantExclusive(requester, line);
    });
}

void
L2Tile::handleGetS(CoreId core, Addr addr)
{
    const Addr line = lineAlign(addr);
    _eq.postIn(_cfg.l2Latency, [this, core, line] {
        _dir.acquire(line, Directory::Txn([this, core, line] {
            CacheLineState *frame = _array.touch(line);
            if (frame) {
                _statHits.inc();
                DirEntry &dir = _dir.entry(line);
                if (dir.owner != kNoCore && dir.owner != core) {
                    // Forward to the owner's L1, which downgrades to
                    // Shared and ships its copy home (FwdAckS); the
                    // home then grants the requester.
                    const CoreId owner = dir.owner;
                    Packet &p = _mesh.make(MsgType::FwdGetS);
                    p.receiver = _l1s[owner];
                    p.core = core;
                    p.addr = line;
                    _mesh.send(_mesh.tileNode(_tileId),
                               _mesh.coreNode(owner), p);
                    return;
                }
                // Plain hit: grant E if nobody shares, else S (MESI).
                const bool exclusive_grant =
                    dir.sharers.none() && dir.owner == kNoCore;
                CoherenceState grant = exclusive_grant
                                           ? CoherenceState::Exclusive
                                           : CoherenceState::Shared;
                if (exclusive_grant)
                    dir.owner = core;
                else
                    dir.sharers.set(core);
                respondFill(core, line, MsgType::Data,
                            FillResult{frame->data, grant, false});
                _dir.release(line);
                return;
            }

            // L2 miss: fetch from memory, install, grant Exclusive.
            _statMisses.inc();
            missToMemory(core, line, false, false);
        }));
    });
}

void
L2Tile::onFwdAckS(const Packet &pkt)
{
    // The (former) owner downgraded and shipped its copy home. Merge
    // it, grant the requester *from here* -- the home->requester pair
    // is the same FIFO channel every later revocation of the line
    // uses, so the grant can never be overtaken -- and release.
    const Addr line = pkt.addr;
    const CoreId requester = pkt.core;
    const CoreId owner = CoreId(pkt.arg);
    CacheLineState *fr = _array.find(line);
    panic_if(!fr, "L2 lost line during busy txn");
    if (pkt.flag && pkt.dirty) {
        fr->data = pkt.data;
        fr->dirty = true;
    }
    DirEntry &dir = _dir.entry(line);
    dir.owner = kNoCore;
    dir.sharers.set(owner);
    dir.sharers.set(requester);
    respondFill(requester, line, MsgType::Data,
                FillResult{fr->data, CoherenceState::Shared, false});
    _dir.release(line);
}

void
L2Tile::handleGetX(CoreId core, Addr addr, bool in_atomic)
{
    const Addr line = lineAlign(addr);
    _eq.postIn(_cfg.l2Latency, [this, core, line, in_atomic] {
        _dir.acquire(line, Directory::Txn([this, core, line, in_atomic] {
            CacheLineState *frame = _array.touch(line);
            if (frame) {
                _statHits.inc();
                DirEntry &dir = _dir.entry(line);
                if (dir.owner == core) {
                    // The "owner" silently dropped a clean Exclusive
                    // copy and re-missed: re-grant from the L2 copy.
                    respondFill(core, line, MsgType::DataExcl,
                                FillResult{frame->data,
                                           CoherenceState::Modified,
                                           false});
                    _dir.release(line);
                    return;
                }

                if (dir.owner != kNoCore) {
                    // Forward to the owner's L1; the surrendered copy
                    // returns home (FwdAckX) and the home grants the
                    // requester Modified.
                    const CoreId owner = dir.owner;
                    Packet &p = _mesh.make(MsgType::FwdGetX);
                    p.receiver = _l1s[owner];
                    p.core = core;
                    p.addr = line;
                    _mesh.send(_mesh.tileNode(_tileId),
                               _mesh.coreNode(owner), p);
                    return;
                }

                // Invalidate every sharer except the requester, then
                // grant Modified.
                SharerSet mask = std::move(dir.sharers);
                mask.clear(core);
                dir.owner = core;
                dir.sharers.reset();
                invalidateSharers(core, line, mask);
                return;
            }

            // L2 miss: fetch (source-logging eligible), install, grant.
            _statMisses.inc();
            missToMemory(core, line, true, in_atomic);
        }));
    });
}

void
L2Tile::onFwdAckX(const Packet &pkt)
{
    // Ownership moves to the requester; the old owner's surrendered
    // copy (if any) merged here, and the home grants Modified on the
    // revocation-ordered home->requester channel (see onFwdAckS).
    const Addr line = pkt.addr;
    const CoreId requester = pkt.core;
    CacheLineState *fr = _array.find(line);
    panic_if(!fr, "L2 lost line during busy txn");
    if (pkt.flag && pkt.dirty) {
        fr->data = pkt.data;
        fr->dirty = true;
    }
    DirEntry &dir = _dir.entry(line);
    dir.owner = requester;
    dir.sharers.reset();
    respondFill(requester, line, MsgType::DataExcl,
                FillResult{fr->data, CoherenceState::Modified, false});
    _dir.release(line);
}

void
L2Tile::handleUpgrade(CoreId core, Addr addr, bool in_atomic)
{
    const Addr line = lineAlign(addr);
    _eq.postIn(_cfg.l2Latency, [this, core, line, in_atomic] {
        _dir.acquire(line, Directory::Txn([this, core, line, in_atomic] {
            CacheLineState *frame = _array.touch(line);
            DirEntry *dir = _dir.find(line);
            const bool still_sharer =
                frame && dir && dir->sharers.test(core);
            if (!still_sharer) {
                // The requester lost the line (invalidated or L2
                // evicted it): morph into a full GetX. Release first;
                // handleGetX re-acquires.
                _dir.release(line);
                handleGetX(core, line, in_atomic);
                return;
            }

            SharerSet mask = std::move(dir->sharers);
            mask.clear(core);
            dir->owner = core;
            dir->sharers.reset();
            invalidateSharers(core, line, mask);
        }));
    });
}

void
L2Tile::sendWbAck(CoreId core, Addr line)
{
    Packet &p = _mesh.make(MsgType::WbAck);
    p.receiver = _l1s[core];
    p.core = core;
    p.addr = line;
    _mesh.send(_mesh.tileNode(_tileId), _mesh.coreNode(core), p);
}

void
L2Tile::handlePutM(CoreId core, Addr addr, const Line &data)
{
    const Addr line = lineAlign(addr);
    _dir.acquire(line, Directory::Txn([this, core, line, data] {
        DirEntry *dir = _dir.find(line);
        if (dir && dir->owner == core) {
            // Inclusion: a line whose owner we still track must be
            // resident (evictions clear the owner under the same busy
            // bit this transaction waited on).
            CacheLineState *frame = _array.find(line);
            panic_if(!frame,
                     "PutM from the tracked owner but the line left "
                     "the L2");
            frame->data = data;
            frame->dirty = true;
            dir->owner = kNoCore;
        }
        // Otherwise a recall or forward crossed this PutM in the mesh
        // and already took the data from the L1's writeback buffer:
        // the PutM is stale, drop it. Always ack so the L1 frees its
        // writeback-buffer slot.
        sendWbAck(core, line);
        _dir.release(line);
    }));
}

void
L2Tile::handleFlush(CoreId core, Addr addr, bool has_data,
                    const Line &data)
{
    const Addr line = lineAlign(addr);
    _eq.postIn(_cfg.l2Latency, [this, core, line, has_data, data] {
        _dir.acquire(line,
                     Directory::Txn([this, core, line, has_data, data] {
            DirEntry *dir = _dir.find(line);
            if (dir && dir->owner != kNoCore && dir->owner != core) {
                // Pull the freshest copy back from the owner first --
                // a split-phase recall round under the busy bit.
                const CoreId owner = dir->owner;
                dir->owner = kNoCore;
                _statRecalls.inc();
                startRound(line, owner, SharerSet{},
                           [this, core, line, has_data,
                            data](Round &r) {
                    CacheLineState *frame = _array.find(line);
                    if (frame && r.gotDirty) {
                        frame->data = r.data;
                        frame->dirty = true;
                    }
                    finishFlush(core, line, has_data, data, true);
                });
                return;
            }
            finishFlush(core, line, has_data, data, false);
        }));
    });
}

void
L2Tile::finishFlush(CoreId core, Addr line, bool has_data,
                    const Line &data, bool owner_recalled)
{
    CacheLineState *frame = _array.find(line);

    // Freshest data wins: recalled owner copy > flusher > L2 copy.
    const Line *to_write = nullptr;
    if (owner_recalled && frame && frame->dirty)
        to_write = &frame->data;
    if (!to_write && has_data)
        to_write = &data;
    if (!to_write && frame && frame->dirty)
        to_write = &frame->data;

    if (to_write) {
        if (frame) {
            frame->data = *to_write;
            frame->dirty = false;  // NVM copy now matches
        }
        writeThrough(line, *to_write, WriteKind::Flush,
                     [this, core, line] {
                         sendFlushAck(core, line);
                     });
    } else {
        // Nothing dirty anywhere: only wait out any write to this
        // line still queued in the controller.
        const McId mc = _amap.memCtrl(line);
        Packet &p = _mesh.make(MsgType::FlushReq);
        p.receiver = _mcPorts[mc];
        p.addr = line;
        p.cb = MeshCallback([this, core, line] {
            sendFlushAck(core, line);
        });
        _mesh.send(_mesh.tileNode(_tileId), _mesh.mcNode(mc), p);
    }
    _dir.release(line);
}

} // namespace atomsim
