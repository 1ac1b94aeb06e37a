/**
 * @file
 * Golden-trace machinery for test_golden_trace.cc -- the single source
 * of truth for how delivery streams are hashed, which workloads the
 * goldens pin, and how the checked-in constants regenerate.
 *
 * The golden constants live in tests/goldens.inc (generated -- never
 * hand-edit). When a PR intentionally changes simulated timing (a new
 * latency model, a protocol change), run test_golden_trace with
 * `--dump-goldens`: it recomputes every constant and rewrites
 * goldens.inc in place. Commit the regenerated file together
 * with the timing change and explain the move in the commit message.
 */

#ifndef ATOMSIM_TESTS_GOLDEN_SUPPORT_HH
#define ATOMSIM_TESTS_GOLDEN_SUPPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/mesh.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace atomsim
{
namespace golden
{

// The checked-in golden constants (generated file).
#include "goldens.inc"

/** One (tick, node, kind) delivery record. */
struct StreamRec
{
    Tick tick;
    std::uint32_t node;
    MsgType type;

    bool
    operator==(const StreamRec &o) const
    {
        return tick == o.tick && node == o.node && type == o.type;
    }
};

/**
 * FNV-1a over the (tick, node, kind) delivery stream -- THE hash every
 * golden constant is computed with. Optionally records the full stream
 * for element-wise comparison.
 */
class TraceHasher : public Mesh::Tracer
{
  public:
    explicit TraceHasher(bool record_stream = false)
        : _record(record_stream)
    {
    }

    void
    onDeliver(Tick tick, std::uint32_t node, MsgType type) override
    {
        mix(tick);
        mix(node);
        mix(std::uint64_t(type));
        ++_deliveries;
        if (_record)
            _stream.push_back(StreamRec{tick, node, type});
    }

    std::uint64_t hash() const { return _hash; }
    std::uint64_t deliveries() const { return _deliveries; }
    std::vector<StreamRec> &stream() { return _stream; }

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _hash ^= (v >> (8 * i)) & 0xff;
            _hash *= 1099511628211ull;
        }
    }

    std::uint64_t _hash = 14695981039346656037ull;
    std::uint64_t _deliveries = 0;
    bool _record;
    std::vector<StreamRec> _stream;
};

/** Everything a golden run produces. */
struct GoldenRun
{
    std::uint64_t hash = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t events = 0;  //!< kernel events executed
    std::uint64_t txns = 0;
    Tick cycles = 0;
    std::vector<StreamRec> stream;  //!< filled when record_stream
    std::vector<std::pair<std::string, std::uint64_t>> stats;
};

/**
 * The quickstart-sized golden workload: the hash micro-benchmark on a
 * scaled-down Table-I machine (8 cores). The goldens pin it under
 * ATOM-OPT and, for BASE's persist-ack path, under BASE.
 */
GoldenRun runGoldenQuickstart(bool record_stream = false,
                              DesignKind design = DesignKind::AtomOpt);

/**
 * The tpcc-sized golden workload: TPC-C new-order, 4 cores. The
 * goldens pin it under ATOM and, for the redo front end and backend,
 * under REDO.
 */
GoldenRun runGoldenTpcc(bool record_stream = false,
                        DesignKind design = DesignKind::Atom);

/**
 * The Table-I golden workload: TPC-C new-order on the default
 * 32-core, 4-MC machine (ATOM-OPT), 2 transactions per core.
 */
GoldenRun runGoldenTpccFull(bool record_stream = false);

/**
 * The 1024-tile golden workload: zipfian multi-tenant KV serving on
 * the 32x32 serving preset (4 tenants, 1 transaction per core), the
 * only golden whose routes run past 8 hops along a leg and whose
 * invalidation rounds reach cores past 63.
 */
GoldenRun runGoldenServing1024(bool record_stream = false);

/**
 * Recompute every golden constant and render the full goldens.inc
 * file contents. This is the single formatter `--dump-goldens` writes
 * through, so the idempotence test can assert that regenerating with
 * no timing change reproduces the checked-in file byte-identically.
 */
std::string renderGoldens();

/**
 * `--dump-goldens` entry point of the golden test binary's main: if
 * argv contains the flag, recompute every golden constant, rewrite
 * tests/goldens.inc, print the new values, and return true (the
 * caller exits without running gtest).
 */
bool maybeDumpGoldens(int argc, char **argv);

} // namespace golden
} // namespace atomsim

#endif // ATOMSIM_TESTS_GOLDEN_SUPPORT_HH
