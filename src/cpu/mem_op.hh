/**
 * @file
 * Memory micro-ops and transactions.
 *
 * Workloads execute functionally at dispatch time and emit a stream of
 * MemOps per transaction; the core consumes the stream through the
 * timing model. Loads/stores never span a cache line, and a store
 * carries at most kMaxStoreBytes (the trace recorder splits them), so
 * a store's payload lives inline in the op.
 */

#ifndef ATOMSIM_CPU_MEM_OP_HH
#define ATOMSIM_CPU_MEM_OP_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Kind of a memory micro-op. */
enum class OpKind : std::uint8_t
{
    Load,         //!< blocking load of [addr, addr+size)
    Store,        //!< store of payload at addr
    Compute,      //!< non-memory work of `cycles` cycles
    AtomicBegin,  //!< Atomic_Begin instruction (Section III-A)
    AtomicEnd,    //!< Atomic_End instruction
};

const char *opName(OpKind kind);

/** One micro-op in a transaction's trace. */
struct MemOp
{
    /** Widest store a single op carries (one word). */
    static constexpr std::uint32_t kMaxStoreBytes = 8;

    OpKind kind = OpKind::Compute;
    std::uint32_t size = 0;
    Addr addr = 0;
    Cycles cycles = 0;          //!< Compute only
    std::uint64_t payload = 0;  //!< Store only: the first `size` bytes

    /** The store's bytes, in memory order. */
    const std::uint8_t *
    payloadBytes() const
    {
        return reinterpret_cast<const std::uint8_t *>(&payload);
    }

    static MemOp
    load(Addr a, std::uint32_t sz)
    {
        MemOp op;
        op.kind = OpKind::Load;
        op.addr = a;
        op.size = sz;
        return op;
    }

    static MemOp
    store(Addr a, const void *bytes, std::uint32_t sz)
    {
        panic_if(sz > kMaxStoreBytes, "store of %u bytes exceeds the "
                 "%u-byte inline payload", sz, kMaxStoreBytes);
        MemOp op;
        op.kind = OpKind::Store;
        op.addr = a;
        op.size = sz;
        std::memcpy(&op.payload, bytes, sz);
        return op;
    }

    static MemOp
    compute(Cycles c)
    {
        MemOp op;
        op.kind = OpKind::Compute;
        op.cycles = c;
        return op;
    }

    static MemOp
    marker(OpKind kind)
    {
        MemOp op;
        op.kind = kind;
        return op;
    }
};

/** A transaction: the op trace plus the lines it modified. */
struct Transaction
{
    std::uint64_t id = 0;
    /** Owning tenant (0 in single-tenant configs). */
    std::uint16_t tenant = 0;
    /** Workload-defined transaction class (e.g. the KV workload's
     * read/update/insert); latency histograms key on it. */
    std::uint16_t txnClass = 0;
    std::vector<MemOp> ops;
    /** Unique line addresses modified inside the atomic region, in
     * first-write order; the commit protocol flushes these. */
    std::vector<Addr> modifiedLines;
};

} // namespace atomsim

#endif // ATOMSIM_CPU_MEM_OP_HH
