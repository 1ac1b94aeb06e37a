/**
 * @file
 * Full-system assembly: builds the machine of Table I plus the
 * configured design, and owns every component.
 */

#ifndef ATOMSIM_HARNESS_SYSTEM_HH
#define ATOMSIM_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "atom/logi.hh"
#include "atom/logm.hh"
#include "atom/recovery.hh"
#include "cache/l1_cache.hh"
#include "cache/l2_cache.hh"
#include "cpu/core.hh"
#include "designs/design.hh"
#include "designs/redo_engine.hh"
#include "mem/address_map.hh"
#include "mem/mc_port.hh"
#include "mem/memory_controller.hh"
#include "mem/phys_mem.hh"
#include "mem/ssd_device.hh"
#include "net/mesh.hh"
#include "os/log_space.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace atomsim
{

/** The simulated machine. */
class System
{
  public:
    /**
     * @param cfg        machine + design configuration
     * @param data_bytes size of the data region (heap space); the log
     *                   and ADR regions are laid out after it
     */
    System(const SystemConfig &cfg, Addr data_bytes);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** The machine's event queue. */
    EventQueue &eventQueue() { return _eq; }

    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }
    const SystemConfig &config() const { return _cfg; }
    const AddressMap &addressMap() const { return _amap; }

    DataImage &archMem() { return _arch; }
    DataImage &nvmImage() { return _nvm; }

    Core &core(CoreId id) { return *_cores[id]; }
    const Core &core(CoreId id) const { return *_cores[id]; }
    L1Cache &l1(CoreId id) { return *_l1s[id]; }
    L2Tile &l2Tile(std::uint32_t t) { return *_tiles[t]; }
    MemoryController &memCtrl(McId m) { return *_mcs[m]; }
    LogM *logm(McId m) { return m < _logms.size() ? _logms[m].get()
                                                  : nullptr; }

    /** Flash tier components (nullptr with cfg.ssdTier off). */
    SsdDevice *ssd(McId m)
    {
        return m < _ssds.size() ? _ssds[m].get() : nullptr;
    }
    DestageEngine *destage(McId m)
    {
        return m < _destages.size() ? _destages[m].get() : nullptr;
    }
    Mesh &mesh() { return *_mesh; }
    AusPool *ausPool() { return _ausPool.get(); }
    RedoEngine *redoEngine() { return _redo.get(); }
    DesignContext &designContext() { return *_design; }
    LogSpace &logSpace() { return *_logSpace; }

    std::uint32_t numCores() const { return _cfg.numCores; }

    /** Seed the durable image from the architectural one (after
     * functional initialization: initial state is durable). */
    void makeDurableSnapshot() { _nvm = _arch.clone(); }

    /**
     * Power failure: every volatile structure (caches, SQ contents,
     * MC queues, directory, MSHRs) is lost; the ATOM critical
     * registers are ADR-flushed into the NVM image (Section IV-D).
     */
    void powerFail();

    /** Run the undo recovery routine against the NVM image. */
    RecoveryReport recover(const RecoveryOptions &opts = RecoveryOptions{});

    /** Run the redo recovery routine (REDO design). */
    RecoveryReport
    recoverRedo(const RecoveryOptions &opts = RecoveryOptions{});

    /** Structured reports of hard media read failures, across MCs. */
    std::vector<MediaFaultRecord> mediaFaults() const;

  private:
    SystemConfig _cfg;
    /** Declared before every component so that it outlives them: the
     * components' member events deschedule from it as they die. */
    EventQueue _eq;
    StatSet _stats;
    AddressMap _amap;
    DataImage _arch;
    DataImage _nvm;

    std::unique_ptr<Mesh> _mesh;
    std::vector<std::unique_ptr<MemoryController>> _mcs;
    std::vector<std::unique_ptr<SsdDevice>> _ssds;
    std::vector<std::unique_ptr<DestageEngine>> _destages;
    std::vector<std::unique_ptr<McPort>> _mcPorts;
    std::unique_ptr<LogSpace> _logSpace;
    std::vector<std::unique_ptr<L2Tile>> _tiles;
    std::vector<std::unique_ptr<L1Cache>> _l1s;
    std::vector<std::unique_ptr<Core>> _cores;
    /** Set iff cfg.serializeAtomicRegions. */
    std::unique_ptr<RegionSerializer> _regionSer;

    std::unique_ptr<AusPool> _ausPool;
    std::vector<std::unique_ptr<LogM>> _logms;
    std::unique_ptr<LogI> _logi;
    std::unique_ptr<RedoEngine> _redo;
    std::unique_ptr<DesignContext> _design;
};

} // namespace atomsim

#endif // ATOMSIM_HARNESS_SYSTEM_HH
