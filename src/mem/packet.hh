/**
 * @file
 * Mesh packets: message kinds, payload, and the typed completion.
 *
 * A Packet is an intrusive, pool-owned node: the mesh chains packets
 * through the embedded `next` pointer into per-link delivery queues, so
 * sending a message performs no allocation in steady state. Delivery is
 * a *typed completion*: the packet names a receiver (a MeshSink) and an
 * opcode (MsgType); the receiver dispatches on the opcode and reads the
 * payload fields. Messages that genuinely need a dynamic continuation
 * (acks that resume a stored-away caller, RPC-style legs into the
 * memory controller) instead carry a fixed-capacity MeshCallback --
 * still non-allocating, enforced at compile time.
 *
 * Payload fields are a small union-of-purposes (addr/core/arg/flags +
 * one cache line); each opcode documents which fields it uses at its
 * send site.
 */

#ifndef ATOMSIM_MEM_PACKET_HH
#define ATOMSIM_MEM_PACKET_HH

#include <cstdint>

#include "cache/cache_line.hh"
#include "mem/phys_mem.hh"
#include "sim/callback.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Coherence / logging message kinds. */
enum class MsgType : std::uint8_t
{
    GetS,        //!< read request (load miss)
    GetX,        //!< read-exclusive request (store miss)
    Upgrade,     //!< S->M upgrade request
    PutM,        //!< dirty writeback L1 -> L2
    Data,        //!< data response (shared)
    DataExcl,    //!< data response (exclusive/modified grant)
    DataLogged,  //!< data response with log bit pre-set (source logging)
    Inv,         //!< invalidate a sharer (home -> sharer L1)
    InvAck,      //!< invalidation acknowledgement (L1 -> home)
    FwdGetS,     //!< forward read to the modified owner's L1
    FwdGetX,     //!< forward read-exclusive to the modified owner's L1
    FwdAckS,     //!< owner's reply to a FwdGetS (L1 -> home)
    FwdAckX,     //!< owner's reply to a FwdGetX (L1 -> home)
    Recall,      //!< surrender request on inclusion eviction / flush
    RecallAck,   //!< recall reply with the owner's copy (L1 -> home)
    WbAck,       //!< writeback acknowledgement (home -> L1)
    LogWrite,    //!< undo-log entry: address + 64 B old value
    LogAck,      //!< log entry accepted/persisted acknowledgement
    FlushReq,    //!< durable writeback request (clwb-like)
    FlushAck,    //!< flush completion
    MemRead,     //!< L2 miss fill request to the memory controller
    MemWrite,    //!< data write to NVM
    RedoLog,     //!< redo-log entry (new value) to the MC log buffer
    Ctrl,        //!< small control message (begin/end/truncate)
};

/** Printable name for a message type. */
const char *msgName(MsgType type);

/**
 * Number of 16-byte flits for a message of a given kind.
 *
 * Control messages are a single flit; data-bearing messages carry a
 * 64-byte line plus a header; log writes additionally carry the logged
 * address.
 */
std::uint32_t msgFlits(MsgType type);

struct Packet;

/**
 * Endpoint of a typed mesh delivery. Implemented by the L1 caches, the
 * L2 tiles, the memory-controller ports and the LogI front end; the
 * implementation switches on pkt.type.
 */
class MeshSink
{
  public:
    virtual void meshDeliver(Packet &pkt) = 0;

  protected:
    ~MeshSink() = default;
};

/**
 * Inline continuation a packet may carry instead of (or alongside) a
 * typed receiver. Sized for the largest rider: a LogAck carrying the
 * store path's own 48-byte completion object.
 */
static constexpr std::size_t kMeshCallbackBytes = 64;
using MeshCallback = InplaceCallback<kMeshCallbackBytes>;

/** One in-flight mesh message (pool node; see net/mesh.hh). */
struct Packet
{
    // --- intrusive delivery-queue linkage (owned by the mesh) ---------
    Packet *next = nullptr;
    Tick arrival = 0;        //!< tail-flit arrival tick at dst
    std::uint64_t seq = 0;   //!< FIFO slot stamped at send time

    // --- routing ------------------------------------------------------
    MsgType type = MsgType::Ctrl;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;

    // --- completion ---------------------------------------------------
    MeshSink *receiver = nullptr;  //!< typed target (preferred)
    MeshCallback cb;               //!< delivery action / ack rider

    // --- payload (opcode-dependent) -----------------------------------
    CoreId core = 0;          //!< requesting core
    Addr addr = 0;            //!< line address
    std::uint32_t arg = 0;    //!< AUS slot / tile id / target core / kind
    bool flag = false;        //!< in_atomic / has_data / exclusive
    bool logged = false;      //!< log bit pre-set (source logging)
    bool dirty = false;       //!< recalled/forwarded copy was dirty
    CoherenceState grant = CoherenceState::Invalid;
    Line data{};              //!< line payload for data-bearing messages

    /** Scrub the completion and scalar payload fields. The data line
     * is deliberately left untouched (zeroing 64 bytes per message is
     * wasted work): senders of data-bearing types must assign it. */
    void
    reset()
    {
        next = nullptr;
        receiver = nullptr;
        cb = nullptr;
        core = 0;
        addr = 0;
        arg = 0;
        flag = false;
        logged = false;
        dirty = false;
        grant = CoherenceState::Invalid;
    }
};

} // namespace atomsim

#endif // ATOMSIM_MEM_PACKET_HH
