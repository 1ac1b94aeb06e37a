/**
 * @file
 * Garnet-lite 2D mesh on-chip network.
 *
 * Node layout reproduces the paper's system: one node per core/L2-tile
 * (4 rows as in Table I), with the four memory controllers attached to
 * the corner nodes. Messages route XY (column first along the row, then
 * down the column); per-link reservations model serialization and
 * contention.
 *
 * Delivery is allocation-free: packets are pool-owned intrusive nodes
 * (mem/packet.hh), and each packet is its own delivery event. send()
 * reserves the route and schedules the packet at its tail-flit arrival
 * tick, so deliveries run in the kernel's one (tick, schedule order)
 * rule like every other event. The per-link reservations make each
 * link's arrivals, and each node's ejection port's, strictly
 * increasing, so messages that share a last link or a same-node port
 * deliver in send order regardless of size -- a protocol invariant
 * the split-phase coherence paths rely on.
 */

#ifndef ATOMSIM_NET_MESH_HH
#define ATOMSIM_NET_MESH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/packet.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/**
 * The on-chip interconnect.
 *
 * Node ids 0..numTiles-1 are core/L2 tiles (row-major). Memory
 * controllers are reached through their attachment corner node; use
 * mcNode() to get the node id for an MC.
 */
class Mesh
{
  public:
    /** Observer of packet deliveries (golden-trace capture). */
    class Tracer
    {
      public:
        virtual void onDeliver(Tick tick, std::uint32_t node,
                               MsgType type) = 0;

      protected:
        ~Tracer() = default;
    };

    /**
     * Packets still in flight when the mesh is destroyed deschedule
     * themselves, so @p eq must outlive the mesh or be destroyed first.
     */
    Mesh(EventQueue &eq, const SystemConfig &cfg, StatSet &stats);

    Mesh(const Mesh &) = delete;
    Mesh &operator=(const Mesh &) = delete;

    /** Number of mesh nodes (tiles). */
    std::uint32_t numNodes() const { return _rows * _cols; }

    /** Node id for a core (cores are co-located with L2 tiles). */
    std::uint32_t coreNode(CoreId core) const { return core % numNodes(); }

    /** Node id for an L2 tile. */
    std::uint32_t tileNode(std::uint32_t tile) const {
        return tile % numNodes();
    }

    /** Corner node a memory controller attaches to. */
    std::uint32_t mcNode(McId mc) const;

    // --- sending ------------------------------------------------------

    /**
     * Draw a packet from the pool with @p type set, the completion and
     * scalar payload fields scrubbed, and the 64-byte data line left
     * as recycled garbage -- data-bearing senders must assign
     * pkt.data. Fill in receiver/payload, then hand it to send(). The
     * mesh owns the packet again once delivered.
     */
    Packet &make(MsgType type);

    /**
     * Send @p pkt (obtained from make()) from @p src to @p dst node.
     * The receiver's meshDeliver() -- or the packet's cb when no
     * receiver is set -- runs when the tail flit arrives.
     *
     * Same-node messages still pay one hop (router traversal).
     */
    void send(std::uint32_t src, std::uint32_t dst, Packet &pkt);

    /**
     * Convenience: send a message whose only action is an inline
     * callback (control messages, acks carrying a continuation).
     */
    void send(std::uint32_t src, std::uint32_t dst, MsgType type,
              MeshCallback &&cb);

    // --- introspection ------------------------------------------------

    /** Total flit-hops carried (utilization stat). */
    std::uint64_t flitHops() const { return _flitHops.value(); }

    /** Hop count of the XY route between two nodes. */
    std::uint32_t hops(std::uint32_t src, std::uint32_t dst) const;

    /** Packet nodes ever allocated (pool high-water mark). */
    std::size_t packetPoolAllocated() const { return _pool.allocated(); }

    /** Packet nodes currently idle on the free list. */
    std::size_t packetPoolFree() const { return _pool.idle(); }

    /** Install (or clear) the delivery tracer. */
    void setTracer(Tracer *tracer) { _tracer = tracer; }

  private:
    friend struct Packet;

    /** Integer coordinates of a node. */
    struct Coord
    {
        std::uint32_t row;
        std::uint32_t col;
    };

    /**
     * XY route + cut-through reservation from @p src to @p dst:
     * advances the per-link busy state and returns the tail-flit
     * arrival tick for a head flit leaving the source router at
     * @p head. @p hop_count receives the hops taken.
     */
    Tick routeReserve(std::uint32_t src, std::uint32_t dst,
                      std::uint32_t flits, Tick head,
                      std::uint32_t &hop_count);

    /**
     * Reserve one straight leg of a route: @p hops links starting at
     * index @p link, each @p stride indices past the last. Returns the
     * head flit's tick after the leg's last hop.
     */
    Tick reserveLeg(std::ptrdiff_t link, std::ptrdiff_t stride,
                    std::uint32_t hops, std::uint32_t flits, Tick head);

    Coord coordOf(std::uint32_t node) const;
    std::uint32_t nodeOf(Coord c) const;

    /** A packet's event body: trace, complete, return it to the pool. */
    void deliver(Packet &pkt);

    EventQueue &_eq;
    std::uint32_t _rows;
    std::uint32_t _cols;
    Cycles _hopLatency;
    /**
     * Per-link busy-until reservation, 4 directed links per node
     * (cut-through approximation: the head flit reserves the link
     * until it passes; body flits extend occupancy at the destination
     * only). One Tick per link, so the per-hop routing loop stays
     * cache-tight.
     */
    std::vector<Tick> _linkBusy;
    /** Per-node ejection-port reservation: same-node messages
     * serialize here so point-to-point FIFO holds regardless of
     * message size (see routeReserve). */
    std::vector<Tick> _ejectBusy;

    FreeListPool<Packet> _pool;

    Counter &_messages;
    Counter &_flitHops;
    Tracer *_tracer = nullptr;
};

} // namespace atomsim

#endif // ATOMSIM_NET_MESH_HH
