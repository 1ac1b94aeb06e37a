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
 * (mem/packet.hh) chained into a per-link delivery queue -- the queue
 * of the *last* link a route traverses, or the destination node's
 * ejection queue for same-node messages (which serializes on a
 * per-node port reservation, so same-pair messages deliver in send
 * order regardless of size -- a protocol invariant the split-phase
 * coherence paths rely on). Each queue owns one member
 * drain event that walks its packets at link rate. Every packet is
 * stamped with an EventQueue FIFO slot at send time and the drain event
 * is scheduled into exactly that slot (EventQueue::scheduleAt), so
 * deliveries execute in the same global order a per-message scheduled
 * closure would have -- refactoring the NoC never perturbs simulated
 * timing (the golden-trace test pins this down).
 *
 * Backpressure: with cfg.linkQueueDepth > 0, a link whose delivery
 * queue is full parks new packets in a stall list and re-admits them as
 * the queue drains, delaying their arrival; the mesh.link_stalls /
 * mesh.link_stall_cycles stats make link-level backpressure observable.
 */

#ifndef ATOMSIM_NET_MESH_HH
#define ATOMSIM_NET_MESH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/packet.hh"
#include "net/router.hh"
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

    Mesh(EventQueue &eq, const SystemConfig &cfg, StatSet &stats);
    ~Mesh();

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
              MeshCallback cb);

    // --- introspection ------------------------------------------------

    /** Total flit-hops carried (utilization stat). */
    std::uint64_t flitHops() const { return _flitHops.value(); }

    /** Hop count of the XY route between two nodes. */
    std::uint32_t hops(std::uint32_t src, std::uint32_t dst) const;

    /** Packets parked by bounded-depth backpressure so far. */
    std::uint64_t linkStalls() const { return _linkStalls.value(); }

    /** Directed link for the hop @p from -> @p to (must be adjacent). */
    const MeshLink &linkBetween(std::uint32_t from,
                                std::uint32_t to) const
    {
        return _links[linkIndex(from, to)];
    }

    /** A node's ejection queue (same-node deliveries). */
    const MeshLink &ejectionOf(std::uint32_t node) const
    {
        return _eject[node];
    }

    /** Packet nodes ever allocated (pool high-water mark). */
    std::size_t packetPoolAllocated() const { return _pool.allocated(); }

    /** Packet nodes currently idle on the free list. */
    std::size_t packetPoolFree() const { return _pool.idle(); }

    /** Install (or clear) the delivery tracer. */
    void setTracer(Tracer *tracer) { _tracer = tracer; }

  private:
    friend struct MeshLink::DrainEvent;

    /**
     * XY route + cut-through reservation from @p src to @p dst:
     * advances the per-link busy state and returns the tail-flit
     * arrival tick for a head flit leaving the source router at
     * @p head. @p last_link receives the final link index (SIZE_MAX
     * for same-node traffic), @p hop_count the hops taken.
     */
    Tick routeReserve(std::uint32_t src, std::uint32_t dst,
                      std::uint32_t flits, Tick head,
                      std::uint32_t &hop_count, std::size_t &last_link);

    MeshCoord coordOf(std::uint32_t node) const;
    std::uint32_t nodeOf(MeshCoord c) const;

    /** Link index for the hop from @p from toward @p to (adjacent). */
    std::size_t linkIndex(std::uint32_t from, std::uint32_t to) const;

    /** Queue @p pkt on @p lq, honoring the bounded depth. */
    void enqueue(MeshLink &lq, Packet *pkt);

    /** Insert into the delivery queue ((arrival, seq) order) and arm
     * the drain event when @p pkt becomes the head. */
    void admit(MeshLink &lq, Packet *pkt);

    /** Drain event body: deliver the head packet, re-arm, re-admit
     * stalled packets. */
    void drainLink(MeshLink &lq);

    EventQueue &_eq;
    std::uint32_t _rows;
    std::uint32_t _cols;
    Cycles _hopLatency;
    std::uint32_t _maxQueueDepth;  //!< 0 = unbounded
    std::unique_ptr<MeshLink[]> _links;  //!< 4 directed links per node
    std::unique_ptr<MeshLink[]> _eject;  //!< per-node ejection queues
    /**
     * Per-link busy-until reservation (cut-through approximation: the
     * head flit reserves the link until it passes; body flits extend
     * occupancy at the destination only). Kept as a compact parallel
     * array -- one Tick per link -- so the per-hop routing loop stays
     * cache-tight instead of striding over the queue objects.
     */
    std::vector<Tick> _linkBusy;
    /** Per-node ejection-port reservation: same-node messages
     * serialize here so point-to-point FIFO holds regardless of
     * message size (see routeReserve). */
    std::vector<Tick> _ejectBusy;

    FreeListPool<Packet> _pool;

    Counter &_messages;
    Counter &_flitHops;
    Counter &_linkStalls;
    Counter &_linkStallCycles;
    Tracer *_tracer = nullptr;
};

} // namespace atomsim

#endif // ATOMSIM_NET_MESH_HH
