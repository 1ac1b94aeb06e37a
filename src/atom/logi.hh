/**
 * @file
 * LogI: the cache-controller half of the ATOM log manager
 * (Section IV-B).
 *
 * LogI implements the L1 store-path hook for the undo-logging designs:
 * on the first write to a line inside an atomic update it ships a
 * LogWrite message (old value + address) to the memory controller that
 * owns the line -- guaranteeing log/data co-location. The controller's
 * mesh port hands the entry to its LogM and sends the LogAck, which
 * completes the store. In BASE mode the ack means "entry durable"; in
 * posted mode (ATOM / ATOM-OPT) it means "line locked".
 */

#ifndef ATOMSIM_ATOM_LOGI_HH
#define ATOMSIM_ATOM_LOGI_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "atom/aus.hh"
#include "cache/l1_cache.hh"
#include "mem/address_map.hh"
#include "net/mesh.hh"
#include "sim/stats.hh"

namespace atomsim
{

/**
 * Cache-side log write initiator for the undo designs.
 *
 * LogWrite messages are typed packets addressed to the owning
 * controller's port: the old value travels in the packet's data line
 * and the store path's completion rides the packet's inline callback
 * there and back on the LogAck, so a log round trip allocates nothing.
 */
class LogI : public StoreLogger
{
  public:
    /**
     * @param mc_ports each memory controller's mesh port, by McId
     * @param aus the AUS slots, which map a core to its update
     */
    LogI(Mesh &mesh, const AddressMap &amap,
         std::vector<MeshSink *> mc_ports, const AusPool &aus,
         StatSet &stats);

    Mode mode() const override { return Mode::Undo; }

    bool
    inAtomic(CoreId core) const override
    {
        return _aus.slotOf(core) >= 0;
    }

    void onFirstWrite(CoreId core, Addr addr, const Line &old_value,
                      CacheCallback done) override;

    void onStore(CoreId, Addr, const Line &, std::uint32_t,
                 const std::uint8_t *, std::uint32_t,
                 CacheCallback) override;

    /** Per-core tenant log-write counters ("tenantN.log_writes");
     * empty (the default) disables per-tenant accounting. */
    void
    setTenantCounters(std::vector<Counter *> per_core)
    {
        _tenantLogWrites = std::move(per_core);
    }

  private:
    Mesh &_mesh;
    const AddressMap &_amap;
    std::vector<MeshSink *> _mcPorts;
    const AusPool &_aus;

    Counter &_statLogWrites;
    std::vector<Counter *> _tenantLogWrites;  //!< per core; may be empty
};

} // namespace atomsim

#endif // ATOMSIM_ATOM_LOGI_HH
