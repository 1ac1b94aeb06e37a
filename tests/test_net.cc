/**
 * @file
 * Unit tests for the on-chip mesh network.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "net/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace atomsim
{
namespace
{

/**
 * The XY route restated one hop at a time: a direction branch and a
 * link lookup per hop, the reservation the mesh's strided legs must
 * reproduce tick for tick.
 */
class HopByHopMesh
{
  public:
    explicit HopByHopMesh(const SystemConfig &cfg)
        : _cols(cfg.meshCols()),
          _hop(cfg.hopLatency),
          _linkBusy(std::size_t(cfg.meshRows) * _cols * 4, 0),
          _ejectBusy(std::size_t(cfg.meshRows) * _cols, 0)
    {
    }

    /** Tail-flit arrival of a @p type message sent at @p now. */
    Tick
    send(std::uint32_t src, std::uint32_t dst, MsgType type, Tick now)
    {
        const std::uint32_t flits = msgFlits(type);
        Tick head = now + _hop;
        if (src == dst) {
            Tick &busy = _ejectBusy[dst];
            const Tick start = std::max(head, busy);
            busy = start + flits;
            flitHops += flits;
            return start + flits - 1;
        }
        std::uint32_t row = src / _cols, col = src % _cols;
        const std::uint32_t to_row = dst / _cols, to_col = dst % _cols;
        std::uint32_t hops = 0;
        while (row != to_row || col != to_col) {
            std::uint32_t dir;  // 0=E, 1=W, 2=S, 3=N
            if (col != to_col)
                dir = to_col > col ? 0 : 1;
            else
                dir = to_row > row ? 2 : 3;
            Tick &busy =
                _linkBusy[(std::size_t(row) * _cols + col) * 4 + dir];
            const Tick start = std::max(head, busy);
            queuedHops += start > head;
            head = start + _hop;
            busy = head + flits - 1;
            switch (dir) {
              case 0: ++col; break;
              case 1: --col; break;
              case 2: ++row; break;
              default: --row; break;
            }
            ++hops;
        }
        flitHops += std::uint64_t(flits) * (hops + 1);
        return head + flits - 1;
    }

    std::uint64_t flitHops = 0;
    std::uint64_t queuedHops = 0;  //!< hops whose head waited for a link

  private:
    std::uint32_t _cols;
    Cycles _hop;
    std::vector<Tick> _linkBusy;
    std::vector<Tick> _ejectBusy;
};

/** Logs every delivery as (tick, node, kind). */
class DeliveryLog final : public Mesh::Tracer
{
  public:
    void
    onDeliver(Tick tick, std::uint32_t node, MsgType type) override
    {
        log.emplace_back(tick, node, type);
    }

    std::vector<std::tuple<Tick, std::uint32_t, MsgType>> log;
};

/**
 * Send a seeded stream of overlapping messages on @p cfg's mesh and
 * check every delivery tick, and flitHops(), against HopByHopMesh.
 * The stream mixes same-node, same-row, same-column and two-leg
 * routes, plus corner-to-corner traffic that piles onto the edge
 * links, in batches a few ticks apart so later routes queue behind
 * earlier ones.
 */
void
expectRouteLegsMatchHopByHop(const SystemConfig &cfg, std::uint64_t seed)
{
    EventQueue eq;
    StatSet stats;
    Mesh mesh(eq, cfg, stats);
    DeliveryLog tracer;
    mesh.setTracer(&tracer);
    HopByHopMesh ref(cfg);
    Random rng(seed);

    const std::uint32_t rows = cfg.meshRows;
    const std::uint32_t cols = cfg.meshCols();
    const std::uint32_t nodes = rows * cols;

    // (arrival, send order, destination, kind): sorted, the order in
    // which the mesh must deliver.
    std::vector<std::tuple<Tick, std::size_t, std::uint32_t, MsgType>>
        expected;
    std::uint32_t same_node = 0, east = 0, west = 0, south = 0,
                  north = 0;
    Tick now = 0;
    for (int batch = 0; batch < 200; ++batch) {
        now += rng.below(12);
        eq.run(now);
        for (int i = 0; i < 16; ++i) {
            std::uint32_t src = std::uint32_t(rng.below(nodes));
            std::uint32_t dst = src;
            switch (rng.below(5)) {
              case 0:  // same node
                break;
              case 1:  // same row
                dst = src / cols * cols + std::uint32_t(rng.below(cols));
                break;
              case 2:  // same column
                dst = std::uint32_t(rng.below(rows)) * cols + src % cols;
                break;
              case 3:  // any pair: an X leg, then a Y leg
                dst = std::uint32_t(rng.below(nodes));
                break;
              default:  // corner to corner, sharing the edge links
                src = mesh.mcNode(McId(rng.below(4)));
                dst = mesh.mcNode(McId(rng.below(4)));
                break;
            }
            const MsgType type = rng.below(2) ? MsgType::Data
                                              : MsgType::Ctrl;
            same_node += src == dst;
            east += dst % cols > src % cols;
            west += dst % cols < src % cols;
            south += dst / cols > src / cols;
            north += dst / cols < src / cols;

            expected.emplace_back(ref.send(src, dst, type, eq.now()),
                                  expected.size(), dst, type);
            mesh.send(src, dst, mesh.make(type));
        }
    }
    eq.run();

    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(tracer.log.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &[arrival, order, dst, type] = expected[i];
        EXPECT_EQ(tracer.log[i], std::make_tuple(arrival, dst, type))
            << "delivery " << i << " (message " << order << ")";
    }
    EXPECT_EQ(mesh.flitHops(), ref.flitHops);
    EXPECT_GT(ref.queuedHops, 0u);
    EXPECT_GT(same_node, 0u);
    EXPECT_GT(east, 0u);
    EXPECT_GT(west, 0u);
    EXPECT_GT(south, 0u);
    EXPECT_GT(north, 0u);
}

class MeshTest : public ::testing::Test
{
  protected:
    MeshTest() : mesh(eq, cfg, stats) {}

    EventQueue eq;
    SystemConfig cfg;  // 4x8 mesh
    StatSet stats;
    Mesh mesh{eq, cfg, stats};
};

TEST_F(MeshTest, Geometry)
{
    EXPECT_EQ(mesh.numNodes(), 32u);
    // XY distance: node 0 = (0,0), node 31 = (3,7).
    EXPECT_EQ(mesh.hops(0, 31), 10u);
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 7), 7u);
    EXPECT_EQ(mesh.hops(0, 24), 3u);
}

TEST_F(MeshTest, McNodesOnCorners)
{
    EXPECT_EQ(mesh.mcNode(0), 0u);    // (0,0)
    EXPECT_EQ(mesh.mcNode(1), 7u);    // (0,7)
    EXPECT_EQ(mesh.mcNode(2), 24u);   // (3,0)
    EXPECT_EQ(mesh.mcNode(3), 31u);   // (3,7)
}

TEST_F(MeshTest, DeliveryLatencyScalesWithHops)
{
    Tick t_near = 0;
    Tick t_far = 0;
    mesh.send(0, 1, MsgType::Ctrl, [&] { t_near = eq.now(); });
    eq.run();
    EventQueue eq2;
    Mesh mesh2(eq2, cfg, stats);
    mesh2.send(0, 31, MsgType::Ctrl, [&] { t_far = eq2.now(); });
    eq2.run();
    EXPECT_GT(t_far, t_near);
    // 1 source hop + 10 link hops at hopLatency=2 -> 22 cycles.
    EXPECT_EQ(t_far, 22u);
    EXPECT_EQ(t_near, 4u);
}

TEST_F(MeshTest, SameNodeStillPaysRouterTraversal)
{
    Tick t = 0;
    mesh.send(5, 5, MsgType::Ctrl, [&] { t = eq.now(); });
    eq.run();
    EXPECT_EQ(t, cfg.hopLatency);
}

TEST_F(MeshTest, DataMessagesPaySerialization)
{
    Tick t_ctrl = 0;
    Tick t_data = 0;
    mesh.send(0, 1, MsgType::Ctrl, [&] { t_ctrl = eq.now(); });
    eq.run();
    EventQueue eq2;
    Mesh mesh2(eq2, cfg, stats);
    mesh2.send(0, 1, MsgType::Data, [&] { t_data = eq2.now(); });
    eq2.run();
    // Data = 5 flits: 4 extra cycles behind the head flit.
    EXPECT_EQ(t_data, t_ctrl + 4);
}

TEST_F(MeshTest, ContentionQueuesOnSharedLink)
{
    std::vector<Tick> arrivals;
    for (int i = 0; i < 4; ++i) {
        mesh.send(0, 1, MsgType::Data,
                  [&] { arrivals.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(arrivals.size(), 4u);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        // Each 5-flit packet occupies the link; arrivals serialize.
        EXPECT_GE(arrivals[i], arrivals[i - 1] + 4);
    }
}

TEST_F(MeshTest, DisjointPathsDoNotInterfere)
{
    Tick t_a = 0;
    Tick t_b = 0;
    mesh.send(0, 1, MsgType::Data, [&] { t_a = eq.now(); });
    mesh.send(8, 9, MsgType::Data, [&] { t_b = eq.now(); });
    eq.run();
    EXPECT_EQ(t_a, t_b);  // different links: identical timing
}

TEST_F(MeshTest, MessageAndFlitStats)
{
    mesh.send(0, 2, MsgType::Data, [] {});
    eq.run();
    EXPECT_EQ(stats.value("mesh", "messages"), 1u);
    // 5 flits over (2 links + 1 source hop) = 15 flit-hops.
    EXPECT_EQ(stats.value("mesh", "flit_hops"), 15u);
}

TEST_F(MeshTest, FlitCountsPerMessageType)
{
    EXPECT_EQ(msgFlits(MsgType::Ctrl), 1u);
    EXPECT_EQ(msgFlits(MsgType::GetS), 1u);
    EXPECT_EQ(msgFlits(MsgType::Data), 5u);
    EXPECT_EQ(msgFlits(MsgType::LogWrite), 6u);
    EXPECT_EQ(msgFlits(MsgType::LogAck), 1u);
}

TEST_F(MeshTest, MultiHopLatencyExact)
{
    // 0 -> 3: source hop + 3 east links at hopLatency=2.
    Tick t3 = 0;
    mesh.send(0, 3, MsgType::Ctrl, [&] { t3 = eq.now(); });
    eq.run();
    EXPECT_EQ(t3, 8u);

    // 0 -> 9 = (1,1): one east link, one south link, plus source hop.
    EventQueue eq2;
    Mesh mesh2(eq2, cfg, stats);
    Tick t9 = 0;
    mesh2.send(0, 9, MsgType::Ctrl, [&] { t9 = eq2.now(); });
    eq2.run();
    EXPECT_EQ(mesh2.hops(0, 9), 2u);
    EXPECT_EQ(t9, 6u);
}

TEST_F(MeshTest, PerLinkFifoOrdering)
{
    // Two messages sharing the final link (1 -> 2) deliver in send
    // order even though the second is a short control message.
    std::vector<int> order;
    mesh.send(0, 2, MsgType::Data, [&] { order.push_back(0); });
    mesh.send(0, 2, MsgType::Ctrl, [&] { order.push_back(1); });
    mesh.send(0, 2, MsgType::Data, [&] { order.push_back(2); });
    EXPECT_EQ(eq.pending(), 3u);  // one pending event per message
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

TEST_F(MeshTest, EjectionPortSerializesSameNodeMessages)
{
    // Same-node messages traverse no link but serialize on the node's
    // ejection port, so a 1-flit control message sent after a 5-flit
    // data message arrives *after* it. Point-to-point FIFO regardless
    // of message size is a protocol invariant: the split-phase
    // coherence paths rely on a PutM never being overtaken by a later
    // request on the same src->dst pair.
    std::vector<int> order;
    Tick t_data = 0;
    Tick t_ctrl = 0;
    mesh.send(5, 5, MsgType::Data, [&] {
        order.push_back(0);
        t_data = eq.now();
    });
    mesh.send(5, 5, MsgType::Ctrl, [&] {
        order.push_back(1);
        t_ctrl = eq.now();
    });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    // Data: hop latency + 5 flits; Ctrl: queued behind it.
    EXPECT_EQ(t_data, 2u + 5u - 1u);
    EXPECT_GT(t_ctrl, t_data);
}

TEST_F(MeshTest, TypedCompletionCarriesPayload)
{
    struct Recorder final : public MeshSink
    {
        void
        meshDeliver(Packet &pkt) override
        {
            type = pkt.type;
            core = pkt.core;
            addr = pkt.addr;
            arg = pkt.arg;
            flag = pkt.flag;
            byte0 = pkt.data[0];
            ++deliveries;
        }

        MsgType type = MsgType::Ctrl;
        CoreId core = 0;
        Addr addr = 0;
        std::uint32_t arg = 0;
        bool flag = false;
        std::uint8_t byte0 = 0;
        int deliveries = 0;
    };

    Recorder sink;
    Packet &p = mesh.make(MsgType::GetX);
    p.receiver = &sink;
    p.core = 3;
    p.addr = 0x12340;
    p.arg = 7;
    p.flag = true;
    p.data[0] = 0xab;
    mesh.send(0, 9, p);
    eq.run();
    EXPECT_EQ(sink.deliveries, 1);
    EXPECT_EQ(sink.type, MsgType::GetX);
    EXPECT_EQ(sink.core, 3u);
    EXPECT_EQ(sink.addr, 0x12340u);
    EXPECT_EQ(sink.arg, 7u);
    EXPECT_TRUE(sink.flag);
    EXPECT_EQ(sink.byte0, 0xab);
}

TEST_F(MeshTest, PacketPoolReusedAcrossMessages)
{
    for (int round = 0; round < 50; ++round) {
        mesh.send(0, 2, MsgType::Data, [] {});
        mesh.send(3, 1, MsgType::Ctrl, [] {});
        eq.run();
    }
    // Two messages in flight at peak; the pool never grows past it.
    EXPECT_LE(mesh.packetPoolAllocated(), 2u);
    EXPECT_EQ(mesh.packetPoolFree(), mesh.packetPoolAllocated());
}

// A message takes its FIFO slot among its arrival tick's events when
// it is sent, like any other scheduled event: after what was scheduled
// for that tick before the send, before what was scheduled after it.
TEST_F(MeshTest, DeliveryKeepsItsSendTimeSlotAmongSameTickEvents)
{
    std::vector<char> order;
    Tick delivered_at = 0;
    eq.post(4, [&] { order.push_back('A'); });
    mesh.send(0, 1, MsgType::Ctrl, [&] {
        order.push_back('D');
        delivered_at = eq.now();
    });
    eq.post(4, [&] { order.push_back('B'); });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'D', 'B'}));
    EXPECT_EQ(delivered_at, 4u);
}

// Packets in flight are ordinary events: destroying the mesh
// deschedules them, and after EventQueue::clear() drops them the mesh
// still delivers new messages, on the same links, and may outlive the
// queue. The burst's 5-flit messages share one link, so its later
// arrivals lie past the wheel horizon and wait in the spill.
TEST_F(MeshTest, InFlightPacketsSurviveClearAndTeardown)
{
    constexpr int kBurst = 1000;  // 5 ticks each: ~5000 ticks of link

    // (a) The mesh goes first, with packets in the wheel and the spill.
    {
        EventQueue q;
        StatSet st;
        int delivered = 0;
        {
            Mesh m(q, cfg, st);
            for (int i = 0; i < kBurst; ++i)
                m.send(0, 1, MsgType::Data, [&] { ++delivered; });
            q.run(100);
            EXPECT_GT(delivered, 0);
            EXPECT_EQ(q.pending(), std::size_t(kBurst - delivered));
            EXPECT_GT(q.spillInserts(), 0u);
        }
        EXPECT_EQ(q.pending(), 0u);
        EXPECT_EQ(q.run(), 0u);
    }

    // (b) clear() drops the burst; new messages on the same link still
    // deliver, and then the queue goes first.
    {
        auto q = std::make_unique<EventQueue>();
        StatSet st;
        Mesh m(*q, cfg, st);
        int first = 0;
        int second = 0;
        for (int i = 0; i < kBurst; ++i)
            m.send(0, 1, MsgType::Data, [&] { ++first; });
        q->run(100);
        const int before_clear = first;
        q->clear();
        EXPECT_EQ(q->pending(), 0u);

        for (int i = 0; i < 8; ++i)
            m.send(0, 1, MsgType::Data, [&] { ++second; });
        q->run();
        EXPECT_EQ(second, 8);
        EXPECT_EQ(first, before_clear);
        EXPECT_GT(first, 0);

        m.send(0, 1, MsgType::Ctrl, [] {});
        q.reset();  // destroy the queue before the mesh
    }
}

// The strided X and Y legs reserve exactly the links, at exactly the
// ticks, of a hop-by-hop walk: on the Table-I mesh and on the 1024-tile
// preset's 32x32 mesh, whose Y legs stride 128 links per hop.
TEST_F(MeshTest, RouteLegsMatchAHopByHopWalk)
{
    expectRouteLegsMatchHopByHop(cfg, 17);
    expectRouteLegsMatchHopByHop(SystemConfig::makeMeshPreset(1024), 23);
}

} // namespace
} // namespace atomsim
