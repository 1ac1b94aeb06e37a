#include "net/mesh.hh"

#include "sim/logging.hh"

namespace atomsim
{

namespace
{

/** True when @p a must deliver before @p b. */
inline bool
deliversBefore(const Packet *a, const Packet *b)
{
    if (a->arrival != b->arrival)
        return a->arrival < b->arrival;
    return a->seq < b->seq;
}

} // namespace

void
MeshLink::DrainEvent::process()
{
    mesh->drainLink(*link);
}

Mesh::Mesh(EventQueue &eq, const SystemConfig &cfg, StatSet &stats)
    : _eq(eq),
      _rows(cfg.meshRows),
      _cols(cfg.meshCols()),
      _hopLatency(cfg.hopLatency),
      _maxQueueDepth(cfg.linkQueueDepth),
      _messages(stats.counter("mesh", "messages")),
      _flitHops(stats.counter("mesh", "flit_hops")),
      _linkStalls(stats.counter("mesh", "link_stalls")),
      _linkStallCycles(stats.counter("mesh", "link_stall_cycles"))
{
    // 4 directed links per node: 0=E, 1=W, 2=S, 3=N. Plus one ejection
    // queue per node for same-node traffic (no link traversal).
    const std::size_t n = numNodes();
    _links = std::make_unique<MeshLink[]>(n * 4);
    _eject = std::make_unique<MeshLink[]>(n);
    _linkBusy.assign(n * 4, 0);
    _ejectBusy.assign(n, 0);
    for (std::size_t i = 0; i < n * 4; ++i) {
        _links[i]._drain.mesh = this;
        _links[i]._drain.link = &_links[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        _eject[i]._drain.mesh = this;
        _eject[i]._drain.link = &_eject[i];
    }
}

Mesh::~Mesh() = default;

MeshCoord
Mesh::coordOf(std::uint32_t node) const
{
    return MeshCoord{node / _cols, node % _cols};
}

std::uint32_t
Mesh::nodeOf(MeshCoord c) const
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

std::size_t
Mesh::linkIndex(std::uint32_t from, std::uint32_t to) const
{
    const MeshCoord a = coordOf(from);
    const MeshCoord b = coordOf(to);
    std::uint32_t dir;
    if (b.row == a.row)
        dir = (b.col == a.col + 1) ? 0 : 1;
    else
        dir = (b.row == a.row + 1) ? 2 : 3;
    return std::size_t(from) * 4 + dir;
}

std::uint32_t
Mesh::hops(std::uint32_t src, std::uint32_t dst) const
{
    return meshHops(coordOf(src), coordOf(dst));
}

Packet &
Mesh::make(MsgType type)
{
    Packet *p = _pool.acquire();
    p->reset();
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
                   std::uint32_t &hop_count, std::size_t &last_link)
{
    hop_count = 0;
    last_link = SIZE_MAX;
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
    const MeshCoord a = coordOf(src);
    const MeshCoord b = coordOf(dst);
    const std::ptrdiff_t row_stride = std::ptrdiff_t(_cols) * 4;
    if (a.col != b.col) {
        const bool east = b.col > a.col;
        const std::uint32_t n = east ? b.col - a.col : a.col - b.col;
        const std::ptrdiff_t first = std::ptrdiff_t(src) * 4 + (east ? 0 : 1);
        const std::ptrdiff_t stride = east ? 4 : -4;
        head = reserveLeg(first, stride, n, flits, head);
        last_link = std::size_t(first + stride * (n - 1));
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
        last_link = std::size_t(first + stride * (n - 1));
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
    std::size_t last;
    pkt.arrival = routeReserve(src, dst, flits, _eq.now() + _hopLatency,
                               hop_count, last);
    pkt.seq = _eq.allocSeq();
    _flitHops.inc(std::uint64_t(flits) * (hop_count + 1));

    enqueue(last != SIZE_MAX ? _links[last] : _eject[dst], &pkt);
}

void
Mesh::enqueue(MeshLink &lq, Packet *pkt)
{
    if (_maxQueueDepth != 0 && lq._qCount >= _maxQueueDepth) {
        // Backpressure: the delivery queue is full; park the packet.
        // It re-enters (with a delayed arrival) as the queue drains.
        _linkStalls.inc();
        pkt->next = nullptr;
        if (lq._ovTail)
            lq._ovTail->next = pkt;
        else
            lq._ovHead = pkt;
        lq._ovTail = pkt;
        ++lq._ovCount;
        return;
    }
    admit(lq, pkt);
}

void
Mesh::admit(MeshLink &lq, Packet *pkt)
{
    // Insert in (arrival, seq) order. Both link and ejection queues
    // are monotone (links through the per-link reservation, ejection
    // through the per-node port reservation), so this is an O(1) tail
    // append in practice; the ordered walk stays as a safety net for
    // re-admitted stalled packets.
    if (!lq._qTail || !deliversBefore(pkt, lq._qTail)) {
        pkt->next = nullptr;
        if (lq._qTail)
            lq._qTail->next = pkt;
        else
            lq._qHead = pkt;
        lq._qTail = pkt;
    } else {
        Packet *prev = nullptr;
        Packet *cur = lq._qHead;
        while (cur && !deliversBefore(pkt, cur)) {
            prev = cur;
            cur = cur->next;
        }
        pkt->next = cur;
        if (prev)
            prev->next = pkt;
        else
            lq._qHead = pkt;
        if (!cur)
            lq._qTail = pkt;
    }
    ++lq._qCount;

    if (lq._qHead == pkt) {
        // New earliest delivery: re-arm the drain event in the packet's
        // stamped FIFO slot.
        _eq.deschedule(lq._drain);
        _eq.scheduleAt(lq._drain, pkt->arrival, pkt->seq);
    }
}

void
Mesh::drainLink(MeshLink &lq)
{
    Packet *pkt = lq._qHead;
    panic_if(!pkt, "link drain with an empty delivery queue");
    panic_if(pkt->arrival != _eq.now(), "link drain off schedule");

    lq._qHead = pkt->next;
    if (!lq._qHead)
        lq._qTail = nullptr;
    --lq._qCount;
    pkt->next = nullptr;

    // Re-arm for the next queued packet in its own stamped slot.
    if (lq._qHead)
        _eq.scheduleAt(lq._drain, lq._qHead->arrival, lq._qHead->seq);

    // Bounded mode: a slot freed; re-admit stalled packets behind the
    // tail, charging the added delay.
    while (_maxQueueDepth != 0 && lq._ovHead &&
           lq._qCount < _maxQueueDepth) {
        Packet *s = lq._ovHead;
        lq._ovHead = s->next;
        if (!lq._ovHead)
            lq._ovTail = nullptr;
        --lq._ovCount;
        s->next = nullptr;

        Tick earliest = _eq.now() + _hopLatency;  // re-traverses output
        if (lq._qTail && lq._qTail->arrival + 1 > earliest)
            earliest = lq._qTail->arrival + 1;    // stay in FIFO order
        if (s->arrival < earliest) {
            _linkStallCycles.inc(earliest - s->arrival);
            s->arrival = earliest;
        }
        s->seq = _eq.allocSeq();
        admit(lq, s);
    }

    if (_tracer)
        _tracer->onDeliver(_eq.now(), pkt->dst, pkt->type);

    // Typed completion: receiver + opcode. cb-only packets run their
    // inline continuation instead.
    if (pkt->receiver) {
        pkt->receiver->meshDeliver(*pkt);
    } else if (pkt->cb) {
        MeshCallback cb = std::move(pkt->cb);
        cb();
    }
    pkt->reset();
    _pool.release(pkt);
}

} // namespace atomsim
