/**
 * @file
 * Workload layer: functional execution + trace recording.
 *
 * Persistent data structures are written against the Accessor
 * interface. During initialization they run through a DirectAccessor
 * (pure functional memory). During simulation each transaction runs
 * through a RecordingAccessor, which applies the operation to the
 * architectural image *and* emits the memory micro-op trace the timing
 * model replays. Store payloads are fixed at that point (dispatch), so
 * the simulated caches hold byte-exact data only while concurrent
 * transactions write disjoint lines.
 */

#ifndef ATOMSIM_WORKLOADS_WORKLOAD_HH
#define ATOMSIM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/mem_op.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace atomsim
{

class PersistentHeap;

/**
 * printf-style formatter for checkConsistency diagnostics. Keeps the
 * string-returning contract (empty = consistent) while letting
 * workloads report *what* tore -- core, address, expected vs found
 * bytes -- so crash-campaign logs and shrunk reproducers carry the
 * fault, not just its existence.
 */
std::string faultf(const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/** Memory access interface data structures are written against. */
class Accessor
{
  public:
    virtual ~Accessor() = default;

    virtual std::uint64_t load64(Addr addr) = 0;
    virtual void store64(Addr addr, std::uint64_t value) = 0;
    virtual std::uint32_t load32(Addr addr) = 0;
    virtual void store32(Addr addr, std::uint32_t value) = 0;
    virtual void loadBytes(Addr addr, std::size_t size, void *out) = 0;
    virtual void storeBytes(Addr addr, std::size_t size,
                            const void *in) = 0;

    /** Mark the start/end of the atomic durable region. */
    virtual void atomicBegin() = 0;
    virtual void atomicEnd() = 0;

    /** Non-memory work (hashing, comparisons) of @p cycles cycles. */
    virtual void compute(Cycles cycles) = 0;

    /**
     * Label the running transaction with its tenant and workload
     * transaction class (latency-histogram keys). A no-op outside
     * recorded simulation (DirectAccessor), so workloads may call it
     * unconditionally.
     */
    virtual void tagTxn(std::uint16_t /*tenant*/, std::uint16_t /*cls*/) {}
};

/** Functional-only accessor (initialization, validation walks). */
class DirectAccessor : public Accessor
{
  public:
    explicit DirectAccessor(DataImage &image) : _image(image) {}

    std::uint64_t load64(Addr a) override { return _image.load64(a); }
    void store64(Addr a, std::uint64_t v) override { _image.store64(a, v); }
    std::uint32_t load32(Addr a) override { return _image.load32(a); }
    void store32(Addr a, std::uint32_t v) override { _image.store32(a, v); }

    void
    loadBytes(Addr a, std::size_t n, void *out) override
    {
        _image.read(a, n, out);
    }

    void
    storeBytes(Addr a, std::size_t n, const void *in) override
    {
        _image.write(a, n, in);
    }

    void atomicBegin() override {}
    void atomicEnd() override {}
    void compute(Cycles) override {}

  private:
    DataImage &_image;
};

/**
 * Applies accesses to the architectural image and records the micro-op
 * trace. Loads and stores are split into <= 8-byte, line-contained
 * chunks (SQ/word granularity); stores inside the atomic region also
 * collect the modified-line set the commit protocol flushes.
 */
class RecordingAccessor : public Accessor
{
  public:
    RecordingAccessor(DataImage &image, Transaction &txn);

    std::uint64_t load64(Addr addr) override;
    void store64(Addr addr, std::uint64_t value) override;
    std::uint32_t load32(Addr addr) override;
    void store32(Addr addr, std::uint32_t value) override;
    void loadBytes(Addr addr, std::size_t size, void *out) override;
    void storeBytes(Addr addr, std::size_t size, const void *in) override;

    void atomicBegin() override;
    void atomicEnd() override;
    void compute(Cycles cycles) override;

    void
    tagTxn(std::uint16_t tenant, std::uint16_t cls) override
    {
        _txn.tenant = tenant;
        _txn.txnClass = cls;
    }

    bool inAtomic() const { return _inAtomic; }

  private:
    void emitLoad(Addr addr, std::uint32_t size);
    void emitStore(Addr addr, const void *bytes, std::uint32_t size);

    DataImage &_image;
    Transaction &_txn;
    bool _inAtomic = false;
    std::vector<Addr> _modified;  //!< line addresses, first-write order
};

/** Dataset-size/mix parameters for the micro-benchmarks (Section V). */
struct MicroParams
{
    /** Payload bytes per table entry / tree node / queue element:
     * 512 (small) or 4096 (large) per the paper. */
    std::uint32_t entryBytes = 512;
    /** Elements preloaded per core before measurement. */
    std::uint32_t initialItems = 64;
    /** Transactions each core executes. */
    std::uint32_t txnsPerCore = 40;
    std::uint64_t seed = 42;
};

/** A multi-core workload: per-core structures + transaction stream. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Workload name as used in the paper's figures. */
    virtual std::string name() const = 0;

    /** Build initial persistent state (runs functionally). */
    virtual void init(DirectAccessor &mem, PersistentHeap &heap,
                      std::uint32_t num_cores) = 0;

    /**
     * Execute one transaction for @p core against @p mem (functional +
     * recorded). Must bracket the durable mutation with
     * atomicBegin()/atomicEnd().
     */
    virtual void runTransaction(CoreId core, Accessor &mem,
                                Random &rng) = 0;

    /**
     * Structure-consistency check used by the crash/recovery property
     * tests: walk the structure in @p mem and verify its invariants.
     * @return empty string when consistent; a diagnostic otherwise.
     */
    virtual std::string checkConsistency(DirectAccessor &mem,
                                         std::uint32_t num_cores) = 0;
};

} // namespace atomsim

#endif // ATOMSIM_WORKLOADS_WORKLOAD_HH
