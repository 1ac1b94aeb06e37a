#include "atom/logi.hh"

#include "sim/logging.hh"

namespace atomsim
{

LogI::LogI(EventQueue &eq, const SystemConfig &cfg, Mesh &mesh,
           const AddressMap &amap,
           std::vector<std::unique_ptr<LogM>> &logms, bool posted,
           std::function<int(CoreId)> resolve_aus, StatSet &stats)
    : _eq(eq),
      _cfg(cfg),
      _mesh(mesh),
      _amap(amap),
      _logms(logms),
      _posted(posted),
      _resolveAus(std::move(resolve_aus)),
      _statLogWrites(stats.counter("logi", "log_writes"))
{
}

void
LogI::onFirstWrite(CoreId core, Addr addr, const Line &old_value,
                   CacheCallback done)
{
    const int aus = _resolveAus(core);
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
    p.receiver = this;
    p.core = core;
    p.addr = addr;
    p.arg = std::uint32_t(aus);
    p.data = old_value;
    p.cb = std::move(done);  // resumed by the LogAck
    _mesh.send(_mesh.coreNode(core), _mesh.mcNode(mc), p);
}

void
LogI::meshDeliver(Packet &pkt)
{
    panic_if(pkt.type != MsgType::LogWrite,
             "LogI: unexpected mesh message %s", msgName(pkt.type));
    const McId mc = _amap.memCtrl(pkt.addr);
    const CoreId core = pkt.core;
    const std::uint32_t mc_node = _mesh.mcNode(mc);
    _logms[mc]->postLogEntry(
        pkt.arg, pkt.addr, pkt.data, _posted,
        [this, core, mc_node, done = std::move(pkt.cb)]() mutable {
            // The ack rides the store path's continuation back to the
            // core.
            Packet &p = _mesh.make(MsgType::LogAck);
            p.cb = std::move(done);
            _mesh.send(mc_node, _mesh.coreNode(core), p);
        });
}

void
LogI::onStore(CoreId, Addr, const Line &, std::uint32_t,
              const std::uint8_t *, std::uint32_t, CacheCallback)
{
    panic("LogI::onStore: redo logging is handled by RedoEngine");
}

} // namespace atomsim
