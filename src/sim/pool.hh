/**
 * @file
 * Pooled intrusive nodes: the free-list pool and the FIFO they queue in.
 *
 * Every allocation-free subsystem (mesh packets, MSHR waiters,
 * directory waiters, pending stores/flushes, controller requests, SSD
 * commands, the event queue's one-shots and wheel buckets) keeps its
 * nodes the same way: grow the pool to the in-flight high-water mark
 * once, then recycle forever, and link a live node into its queue
 * through a pointer inside the node. These two templates are that idiom in one
 * place, so the no-allocation property is auditable centrally.
 *
 * FreeListPool: T must expose a `T *next` member, used as the
 * free-list link while the node is idle (the node's queue may reuse it
 * while the node is live). Scrubbing node state (destroying callbacks,
 * clearing payloads) stays the caller's job before release().
 *
 * IntrusiveFifo: a singly-linked queue of nodes threaded through the
 * member @p Link (`next` by default). It is two pointers and holds no
 * count, so a table of them stays small; a site that needs a count
 * keeps its own beside the FIFO. It owns nothing: nodes come from and
 * go back to their pool.
 */

#ifndef ATOMSIM_SIM_POOL_HH
#define ATOMSIM_SIM_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace atomsim
{

template <typename T>
class FreeListPool
{
  public:
    /** A node with indeterminate (recycled) payload; next == nullptr. */
    T *
    acquire()
    {
        if (_free) {
            T *node = _free;
            _free = node->next;
            node->next = nullptr;
            --_freeCount;
            return node;
        }
        _nodes.push_back(std::make_unique<T>());
        return _nodes.back().get();
    }

    /** Return a node to the free list (caller has scrubbed it). */
    void
    release(T *node)
    {
        node->next = _free;
        _free = node;
        ++_freeCount;
    }

    /** Nodes ever allocated (high-water mark). */
    std::size_t allocated() const { return _nodes.size(); }

    /** Nodes currently idle on the free list. */
    std::size_t idle() const { return _freeCount; }

  private:
    std::vector<std::unique_ptr<T>> _nodes;
    T *_free = nullptr;
    std::size_t _freeCount = 0;
};

/**
 * FIFO of intrusive nodes linked through @p Link. A node sits on at
 * most one FIFO at a time; pushing writes its link, and pop_front() /
 * remove() clear it. Copying the FIFO copies the two pointers only, so
 * a copy aliases the same nodes: take() is the way to detach a list.
 */
template <typename T, T *T::*Link = &T::next>
class IntrusiveFifo
{
  public:
    bool empty() const { return _head == nullptr; }

    /** Oldest node, or nullptr. */
    T *front() const { return _head; }

    /** The node queued after @p node (nullptr at the back). */
    static T *next(const T *node) { return node->*Link; }

    void
    push_back(T *node)
    {
        node->*Link = nullptr;
        if (_tail)
            _tail->*Link = node;
        else
            _head = node;
        _tail = node;
    }

    void
    push_front(T *node)
    {
        node->*Link = _head;
        _head = node;
        if (!_tail)
            _tail = node;
    }

    /** Unlink and return the oldest node. @pre !empty() */
    T *
    pop_front()
    {
        T *node = _head;
        _head = node->*Link;
        if (!_head)
            _tail = nullptr;
        node->*Link = nullptr;
        return node;
    }

    /** Oldest node for which @p pred(node) holds, or nullptr. */
    template <typename Pred>
    T *
    find(Pred &&pred) const
    {
        for (T *n = _head; n; n = n->*Link) {
            if (pred(*n))
                return n;
        }
        return nullptr;
    }

    /**
     * Unlink @p node, a walk from the front.
     * @retval false @p node is not on this FIFO (nothing changes)
     */
    bool
    remove(T *node)
    {
        T *prev = nullptr;
        for (T *n = _head; n != node; prev = n, n = n->*Link) {
            if (!n)
                return false;
        }
        if (prev)
            prev->*Link = node->*Link;
        else
            _head = node->*Link;
        if (_tail == node)
            _tail = prev;
        node->*Link = nullptr;
        return true;
    }

    /**
     * Detach every node: the result holds them in order and this FIFO
     * is left empty, so a node pushed while the result is walked waits
     * here for the next take().
     */
    IntrusiveFifo
    take()
    {
        IntrusiveFifo out = *this;
        _head = _tail = nullptr;
        return out;
    }

  private:
    T *_head = nullptr;
    T *_tail = nullptr;
};

} // namespace atomsim

#endif // ATOMSIM_SIM_POOL_HH
