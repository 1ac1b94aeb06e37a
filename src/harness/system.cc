#include "harness/system.hh"

#include "sim/logging.hh"

namespace atomsim
{

namespace
{

/** @p cfg after validate(): runs before any member is built from it,
 * so a bad config dies with validate()'s message, not inside a
 * member's constructor. */
const SystemConfig &
validated(const SystemConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

System::System(const SystemConfig &cfg, Addr data_bytes)
    : _cfg(validated(cfg)), _amap(_cfg, data_bytes)
{
    _mesh = std::make_unique<Mesh>(_eq, _cfg, _stats);

    for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
        _mcs.push_back(std::make_unique<MemoryController>(
            m, _eq, _cfg, _nvm, _stats));
        // Hybrid memory: the app-direct window (empty outside
        // AppDirect mode) bypasses the controller's DRAM cache.
        _mcs.back()->setUncacheableWindow(_amap.appDirectBase(),
                                          _amap.appDirectEnd());
        _mcPorts.push_back(
            std::make_unique<McPort>(m, *_mesh, *_mcs.back()));
    }
    if (_cfg.ssdTier) {
        // Flash tier: one SSD + destage engine per controller.
        for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
            _ssds.push_back(std::make_unique<SsdDevice>(
                m, _eq, _cfg, _stats));
            _destages.push_back(std::make_unique<DestageEngine>(
                m, _eq, _cfg, _amap, *_mcs[m], *_ssds[m], _nvm,
                _stats));
            _mcs[m]->setDestageEngine(_destages.back().get());
        }
    }
    _logSpace = std::make_unique<LogSpace>(_eq, _cfg, _stats);

    for (std::uint32_t t = 0; t < _cfg.l2Tiles; ++t) {
        _tiles.push_back(std::make_unique<L2Tile>(
            t, _eq, _cfg, *_mesh, _amap, _stats));
    }
    for (CoreId c = 0; c < _cfg.numCores; ++c) {
        _l1s.push_back(std::make_unique<L1Cache>(
            c, _eq, _cfg, *_mesh, _amap, _tiles, _stats));
    }

    std::vector<L1Cache *> l1_ptrs;
    for (auto &l1 : _l1s)
        l1_ptrs.push_back(l1.get());
    std::vector<MeshSink *> mc_sinks;
    for (auto &port : _mcPorts)
        mc_sinks.push_back(port.get());
    std::vector<MeshSink *> tile_sinks;
    for (auto &tile : _tiles)
        tile_sinks.push_back(tile.get());
    for (auto &tile : _tiles) {
        tile->setL1s(l1_ptrs);
        tile->setMcPorts(mc_sinks);
    }
    for (auto &port : _mcPorts)
        port->setTileSinks(tile_sinks);

    // --- Design-specific wiring ----------------------------------------
    const bool undo_design = _cfg.design == DesignKind::Base ||
                             _cfg.design == DesignKind::Atom ||
                             _cfg.design == DesignKind::AtomOpt;

    if (undo_design) {
        _ausPool = std::make_unique<AusPool>(
            _eq, _cfg.ausPerMc, _cfg.numCores, _stats);
        for (McId m = 0; m < _cfg.numMemCtrls; ++m) {
            _logms.push_back(std::make_unique<LogM>(
                m, _eq, _cfg, _amap, *_mcs[m], *_logSpace,
                _stats, *_ausPool));
        }
        _logi = std::make_unique<LogI>(*_mesh, _amap, mc_sinks,
                                       *_ausPool, _stats);
        for (auto &l1 : _l1s)
            l1->setStoreLogger(_logi.get());
        for (McId m = 0; m < _cfg.numMemCtrls; ++m)
            _mcPorts[m]->setLogM(_logms[m].get());
    } else if (_cfg.design == DesignKind::Redo) {
        _ausPool = std::make_unique<AusPool>(
            _eq, _cfg.numCores, _cfg.numCores, _stats);
        _redo = std::make_unique<RedoEngine>(_eq, _cfg, _amap, _mcs,
                                             _stats);
        for (auto &l1 : _l1s)
            l1->setStoreLogger(_redo.get());
        for (auto &tile : _tiles)
            tile->setVictimCache(&_redo->victimCache());
    } else {
        // NON-ATOMIC: no logger, no AUS.
        _ausPool = std::make_unique<AusPool>(
            _eq, _cfg.numCores, _cfg.numCores, _stats);
    }

    _design = std::make_unique<DesignContext>(
        _eq, _cfg, _logms, l1_ptrs, *_ausPool, _redo.get(), _stats);

    if (_cfg.numTenants > 0) {
        // Multi-tenant accounting: per-core pointers into shared
        // per-tenant counters (cores of one tenant share a Counter).
        auto per_core = [this](const char *stat) {
            std::vector<Counter *> v(_cfg.numCores);
            for (CoreId c = 0; c < _cfg.numCores; ++c)
                v[c] = &_stats.counter(
                    "tenant" + std::to_string(_cfg.tenantOf(c)), stat);
            return v;
        };
        _design->setTenantCounters(per_core("commits"));
        _ausPool->setTenantCounters(per_core("aus_acquires"));
        if (_logi)
            _logi->setTenantCounters(per_core("log_writes"));
    }

    if (_cfg.serializeAtomicRegions)
        _regionSer = std::make_unique<RegionSerializer>();
    for (CoreId c = 0; c < _cfg.numCores; ++c) {
        _cores.push_back(std::make_unique<Core>(
            c, _eq, _cfg, *_l1s[c], _stats, _tally));
        _cores.back()->setDesign(_design.get());
        _cores.back()->setRegionSerializer(_regionSer.get());
    }
}

System::~System()
{
    // The controllers hold raw pointers to the (soon gone) LogM gate
    // and destage engine.
    for (auto &mc : _mcs) {
        mc->setWriteGate(nullptr);
        mc->setDestageEngine(nullptr);
    }
}

void
System::powerFail()
{
    // ADR: the critical LogM registers reach NVM even as power drops.
    for (auto &logm : _logms)
        logm->flushCriticalState(_nvm);
    // Under the torn-write model, writes in flight at each NVM device
    // commit a word-aligned prefix.
    for (auto &mc : _mcs)
        mc->powerFail();
    // Everything else that is volatile -- caches, queues, in-flight
    // continuations -- is lost, and the run ends: recovery reads only
    // the NVM and flash images. Dropping every pending event is the
    // one place that enforces this; no pre-crash continuation can run.
    _eq.clear();
}

std::vector<const DataImage *>
System::flashImages() const
{
    std::vector<const DataImage *> images;
    for (const auto &ssd : _ssds)
        images.push_back(&ssd->flash());
    return images;
}

RecoveryReport
System::recover(RecoveryOptions opts)
{
    opts.flashImages = flashImages();
    RecoveryManager mgr(_cfg, _amap);
    return mgr.recover(_nvm, opts, &_stats);
}

RecoveryReport
System::recoverRedo(RecoveryOptions opts)
{
    opts.flashImages = flashImages();
    RedoRecovery mgr(_cfg, _amap);
    return mgr.recover(_nvm, opts);
}

std::vector<MediaFaultRecord>
System::mediaFaults() const
{
    std::vector<MediaFaultRecord> all;
    for (const auto &mc : _mcs) {
        const auto &faults = mc->mediaFaults();
        all.insert(all.end(), faults.begin(), faults.end());
    }
    return all;
}

} // namespace atomsim
