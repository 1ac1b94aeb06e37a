/**
 * @file
 * Mesh-facing port of a memory controller.
 *
 * The port is the MeshSink for everything addressed to an MC's corner
 * node: L2 fill reads (GetS/GetX), durable data writes (MemWrite),
 * flush-ordering waits (FlushReq) and, under the undo designs, LogI's
 * undo entries (LogWrite), which it hands to the controller's LogM and
 * acknowledges with a LogAck. It also offers every read-exclusive fill
 * inside an atomic update to the LogM for source logging (ATOM-OPT,
 * Section III-D) -- the controller has just read the pre-transaction
 * value, so the log entry is created here and the fill returns with
 * its log bit pre-set (DataLogged).
 */

#ifndef ATOMSIM_MEM_MC_PORT_HH
#define ATOMSIM_MEM_MC_PORT_HH

#include <cstdint>
#include <vector>

#include "mem/memory_controller.hh"
#include "mem/packet.hh"
#include "net/mesh.hh"
#include "sim/types.hh"

namespace atomsim
{

class LogM;

/** One memory controller's attachment to the mesh. */
class McPort : public MeshSink
{
  public:
    McPort(McId mc, Mesh &mesh, MemoryController &ctrl)
        : _mc(mc), _mesh(mesh), _ctrl(ctrl)
    {
    }

    /** Wire the L2 tiles (fill responses; indexed by tile id). */
    void setTileSinks(std::vector<MeshSink *> tiles)
    {
        _tiles = std::move(tiles);
    }

    /** Install the controller's LogM (undo designs; nullptr
     * otherwise). */
    void setLogM(LogM *logm) { _logm = logm; }

    void meshDeliver(Packet &pkt) override;

  private:
    McId _mc;
    Mesh &_mesh;
    MemoryController &_ctrl;
    LogM *_logm = nullptr;
    std::vector<MeshSink *> _tiles;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_MC_PORT_HH
