#include "atom/logi.hh"

#include "sim/logging.hh"

namespace atomsim
{

LogI::LogI(Mesh &mesh, const AddressMap &amap,
           std::vector<MeshSink *> mc_ports, const AusPool &aus,
           StatSet &stats)
    : _mesh(mesh),
      _amap(amap),
      _mcPorts(std::move(mc_ports)),
      _aus(aus),
      _statLogWrites(stats.counter("logi", "log_writes"))
{
}

void
LogI::onFirstWrite(CoreId core, Addr addr, const Line &old_value,
                   CacheCallback done)
{
    const int aus = _aus.slotOf(core);
    panic_if(aus < 0, "onFirstWrite outside an atomic update (core %u)",
             core);
    _statLogWrites.inc();
    if (!_tenantLogWrites.empty())
        _tenantLogWrites[core]->inc();

    // Ship the log entry to the controller that owns the data line:
    // log/data co-location makes the posted-log optimization legal
    // (Section III-C, "Sources of reordering").
    const McId mc = _amap.memCtrl(addr);
    Packet &p = _mesh.make(MsgType::LogWrite);
    p.receiver = _mcPorts[mc];
    p.core = core;
    p.addr = addr;
    p.arg = std::uint32_t(aus);
    p.data = old_value;
    p.cb = std::move(done);  // resumed by the LogAck
    _mesh.send(_mesh.coreNode(core), _mesh.mcNode(mc), p);
}

void
LogI::onStore(CoreId, Addr, const Line &, std::uint32_t,
              const std::uint8_t *, std::uint32_t, CacheCallback)
{
    panic("LogI::onStore: redo logging is handled by RedoEngine");
}

} // namespace atomsim
