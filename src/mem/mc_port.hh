/**
 * @file
 * Mesh-facing port of a memory controller.
 *
 * The port is the MeshSink for everything addressed to an MC's corner
 * node: L2 fill reads (GetS/GetX), durable data writes (MemWrite) and
 * flush-ordering waits (FlushReq). It owns the source-logging decision
 * for read-exclusive fills (Section III-D) -- the controller has just
 * read the pre-transaction value, so the log entry is created here and
 * the fill returns with its log bit pre-set (DataLogged).
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

    /** Install the ATOM-OPT source logger (nullptr otherwise). */
    void setSourceLogger(LogM *logm) { _srcLog = logm; }

    void meshDeliver(Packet &pkt) override;

  private:
    McId _mc;
    Mesh &_mesh;
    MemoryController &_ctrl;
    LogM *_srcLog = nullptr;
    std::vector<MeshSink *> _tiles;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_MC_PORT_HH
