#include "net/mesh.hh"

#include "sim/logging.hh"

namespace atomsim
{

void
Packet::process()
{
    mesh->deliver(*this);
}

Mesh::Mesh(EventQueue &eq, const SystemConfig &cfg, StatSet &stats)
    : _eq(eq),
      _rows(cfg.meshRows),
      _cols(cfg.meshCols()),
      _hopLatency(cfg.hopLatency),
      // 4 directed links per node: 0=E, 1=W, 2=S, 3=N.
      _linkBusy(std::size_t(numNodes()) * 4, 0),
      _ejectBusy(numNodes(), 0),
      _messages(stats.counter("mesh", "messages")),
      _flitHops(stats.counter("mesh", "flit_hops"))
{
}

Mesh::Coord
Mesh::coordOf(std::uint32_t node) const
{
    return Coord{node / _cols, node % _cols};
}

std::uint32_t
Mesh::nodeOf(Coord c) const
{
    return c.row * _cols + c.col;
}

std::uint32_t
Mesh::mcNode(McId mc) const
{
    // Memory controllers sit on the four die corners (Section V).
    switch (mc % 4) {
      case 0:
        return nodeOf({0, 0});
      case 1:
        return nodeOf({0, _cols - 1});
      case 2:
        return nodeOf({_rows - 1, 0});
      default:
        return nodeOf({_rows - 1, _cols - 1});
    }
}

std::uint32_t
Mesh::hops(std::uint32_t src, std::uint32_t dst) const
{
    const Coord a = coordOf(src);
    const Coord b = coordOf(dst);
    const std::uint32_t dr = a.row > b.row ? a.row - b.row : b.row - a.row;
    const std::uint32_t dc = a.col > b.col ? a.col - b.col : b.col - a.col;
    return dr + dc;
}

Packet &
Mesh::make(MsgType type)
{
    Packet *p = _pool.acquire();
    p->reset();
    p->mesh = this;
    p->type = type;
    return *p;
}

void
Mesh::send(std::uint32_t src, std::uint32_t dst, MsgType type,
           MeshCallback &&cb)
{
    Packet &p = make(type);
    p.cb = std::move(cb);
    send(src, dst, p);
}

Tick
Mesh::reserveLeg(std::ptrdiff_t link, std::ptrdiff_t stride,
                 std::uint32_t hops, std::uint32_t flits, Tick head)
{
    // Cut-through reservation: the head flit waits for each link in
    // turn, then the body's flits occupy it behind the head.
    Tick *busy = _linkBusy.data();
    for (std::uint32_t i = 0; i < hops; ++i, link += stride) {
        Tick &b = busy[link];
        const Tick start = head > b ? head : b;
        head = start + _hopLatency;
        b = head + flits - 1;
    }
    return head;
}

Tick
Mesh::routeReserve(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t flits, Tick head,
                   std::uint32_t &hop_count)
{
    hop_count = 0;
    if (src == dst) {
        // Same-node message: serialize on the node's ejection port
        // exactly like a link, so point-to-point FIFO holds between
        // messages of different sizes (the split-phase coherence
        // protocol relies on a PutM never being overtaken by a later
        // 1-flit request on the same src->dst pair).
        Tick &busy = _ejectBusy[dst];
        const Tick start = head > busy ? head : busy;
        busy = start + flits;
        return start + flits - 1;
    }

    // XY routing as two fixed-stride legs over the busy array. Link
    // n*4 + dir leaves node n, so consecutive hops of the X leg (along
    // the row) are 4 links apart and those of the Y leg (down the
    // column) 4*cols apart; the sign is the direction of travel.
    const Coord a = coordOf(src);
    const Coord b = coordOf(dst);
    const std::ptrdiff_t row_stride = std::ptrdiff_t(_cols) * 4;
    if (a.col != b.col) {
        const bool east = b.col > a.col;
        const std::uint32_t n = east ? b.col - a.col : a.col - b.col;
        const std::ptrdiff_t first = std::ptrdiff_t(src) * 4 + (east ? 0 : 1);
        const std::ptrdiff_t stride = east ? 4 : -4;
        head = reserveLeg(first, stride, n, flits, head);
        hop_count = n;
    }
    if (a.row != b.row) {
        const bool south = b.row > a.row;
        const std::uint32_t n = south ? b.row - a.row : a.row - b.row;
        const std::uint32_t turn = a.row * _cols + b.col;
        const std::ptrdiff_t first =
            std::ptrdiff_t(turn) * 4 + (south ? 2 : 3);
        const std::ptrdiff_t stride = south ? row_stride : -row_stride;
        head = reserveLeg(first, stride, n, flits, head);
        hop_count += n;
    }
    return head + flits - 1;
}

void
Mesh::send(std::uint32_t src, std::uint32_t dst, Packet &pkt)
{
    panic_if(src >= numNodes() || dst >= numNodes(),
             "bad mesh node (%u -> %u)", src, dst);

    pkt.src = src;
    pkt.dst = dst;

    const std::uint32_t flits = msgFlits(pkt.type);
    _messages.inc();

    std::uint32_t hop_count;
    const Tick arrival = routeReserve(src, dst, flits,
                                      _eq.now() + _hopLatency, hop_count);
    // The packet is its own delivery event: scheduling it now gives it
    // its FIFO slot among the arrival tick's events.
    _eq.schedule(pkt, arrival);
    _flitHops.inc(std::uint64_t(flits) * (hop_count + 1));
}

void
Mesh::deliver(Packet &pkt)
{
    if (_tracer)
        _tracer->onDeliver(_eq.now(), pkt.dst, pkt.type);

    // Typed completion: receiver + opcode. cb-only packets run their
    // inline continuation instead.
    if (pkt.receiver) {
        pkt.receiver->meshDeliver(pkt);
    } else if (pkt.cb) {
        MeshCallback cb = std::move(pkt.cb);
        cb();
    }
    pkt.reset();
    _pool.release(&pkt);
}

} // namespace atomsim
