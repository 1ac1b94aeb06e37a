#include "mem/mc_port.hh"

#include "atom/logm.hh"
#include "sim/logging.hh"

namespace atomsim
{

void
McPort::meshDeliver(Packet &pkt)
{
    switch (pkt.type) {
      case MsgType::GetS:
      case MsgType::GetX: {
        // L2 fill read. The response goes back to the requesting tile
        // as a typed Data/DataExcl/DataLogged packet.
        const bool exclusive = pkt.type == MsgType::GetX;
        const bool in_atomic = pkt.flag;
        const CoreId core = pkt.core;
        const Addr addr = pkt.addr;
        const std::uint32_t tile = pkt.arg;
        _ctrl.readLine(
            addr, ReadKind::Demand,
            [this, core, addr, tile, exclusive,
             in_atomic](const Line &data) {
                bool logged = false;
                // Source-logging (Section III-D): the controller has
                // just read the pre-transaction value of the line; log
                // it here and return the data with the log bit set.
                if (exclusive && in_atomic && _logm)
                    logged = _logm->sourceLogFill(core, addr, data);
                const MsgType resp =
                    logged ? MsgType::DataLogged
                           : (exclusive ? MsgType::DataExcl
                                        : MsgType::Data);
                Packet &p = _mesh.make(resp);
                p.receiver = _tiles[tile];
                p.core = core;
                p.addr = addr;
                p.data = data;
                p.logged = logged;
                p.flag = exclusive;
                _mesh.send(_mesh.mcNode(_mc), _mesh.tileNode(tile), p);
            });
        return;
      }
      case MsgType::MemWrite:
        // Durable data write; the packet's rider fires when durable.
        _ctrl.writeLine(pkt.addr, pkt.data, WriteKind(pkt.arg),
                        std::move(pkt.cb));
        return;
      case MsgType::FlushReq:
        // Flush ordering: resume the rider once any queued write to
        // the line has persisted.
        _ctrl.whenLineDurable(pkt.addr, std::move(pkt.cb));
        return;
      case MsgType::LogWrite: {
        // Undo entry from LogI: the ack carries the store path's
        // continuation back to the core.
        panic_if(!_logm, "MC port %u: LogWrite without a LogM", _mc);
        const CoreId core = pkt.core;
        _logm->postLogEntry(
            pkt.arg, pkt.addr, pkt.data,
            [this, core, done = std::move(pkt.cb)]() mutable {
                Packet &p = _mesh.make(MsgType::LogAck);
                p.cb = std::move(done);
                _mesh.send(_mesh.mcNode(_mc), _mesh.coreNode(core), p);
            });
        return;
      }
      default:
        panic("MC port %u: unexpected mesh message %s", _mc,
              msgName(pkt.type));
    }
}

} // namespace atomsim
