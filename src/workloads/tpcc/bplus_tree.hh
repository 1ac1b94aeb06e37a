/**
 * @file
 * Persistent B+-tree over the Accessor interface.
 *
 * Used both by the btree micro-benchmark and as the storage engine for
 * the TPC-C tables (the paper implements the TPC-C schema on B+-trees,
 * Section V). Nodes are 512 bytes (8 cache lines); leaves are chained
 * for ordered scans. Insert splits bottom-up along the descent path;
 * delete removes from the leaf and tolerates underflow (no rebalancing
 * merge: searches and scans stay correct over underfull nodes).
 */

#ifndef ATOMSIM_WORKLOADS_TPCC_BPLUS_TREE_HH
#define ATOMSIM_WORKLOADS_TPCC_BPLUS_TREE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workloads/heap.hh"
#include "workloads/workload.hh"

namespace atomsim
{

/** A persistent B+-tree rooted at an anchor slot. */
class BPlusTree
{
  public:
    static constexpr std::uint32_t kNodeBytes = 512;
    static constexpr std::uint32_t kLeafKeys = 28;
    static constexpr std::uint32_t kIntKeys = 27;

    /**
     * @param anchor persistent slot holding the root pointer
     * @param heap   allocator for nodes
     * @param core   arena the nodes allocate from
     */
    BPlusTree(Addr anchor, PersistentHeap &heap, std::uint32_t core);

    /** Allocate an anchor + empty root leaf. Returns the anchor. */
    static Addr create(Accessor &mem, PersistentHeap &heap,
                       std::uint32_t core);

    /** Insert (or overwrite) key -> value. */
    void insert(Accessor &mem, std::uint64_t key, std::uint64_t value);

    /** Point lookup. */
    std::optional<std::uint64_t> search(Accessor &mem,
                                        std::uint64_t key);

    /** Remove a key. @return true if it was present. */
    bool remove(Accessor &mem, std::uint64_t key);

    /** Number of keys (leaf-chain walk; test/check helper). */
    std::uint64_t count(Accessor &mem);

    /**
     * Verify structural invariants: sorted keys, in-range children,
     * correctly chained and sorted leaves. Empty string when OK.
     */
    std::string checkStructure(Accessor &mem);

    Addr anchor() const { return _anchor; }

  private:
    Addr rootOf(Accessor &mem) { return mem.load64(_anchor); }

    static bool isLeaf(Accessor &mem, Addr node);
    static std::uint32_t countOf(Accessor &mem, Addr node);
    static void setCount(Accessor &mem, Addr node, std::uint32_t n);

    static Addr leafKeySlot(Addr node, std::uint32_t i);
    static Addr leafValSlot(Addr node, std::uint32_t i);
    static Addr leafNextSlot(Addr node);
    static Addr intKeySlot(Addr node, std::uint32_t i);
    static Addr intChildSlot(Addr node, std::uint32_t i);

    Addr allocNode(Accessor &mem, bool leaf);

    /** Descend to the leaf for @p key, recording the path. */
    Addr descend(Accessor &mem, std::uint64_t key,
                 std::vector<std::pair<Addr, std::uint32_t>> *path);

    /** Insert @p key/@p right into the parent after a child split. */
    void insertIntoParent(
        Accessor &mem,
        std::vector<std::pair<Addr, std::uint32_t>> &path,
        std::uint64_t sep_key, Addr right);

    std::string checkSubtree(Accessor &mem, Addr node, std::uint64_t lo,
                             std::uint64_t hi, std::uint32_t depth,
                             std::uint32_t &leaf_depth);

    Addr _anchor;
    PersistentHeap &_heap;
    std::uint32_t _core;
};

} // namespace atomsim

#endif // ATOMSIM_WORKLOADS_TPCC_BPLUS_TREE_HH
